"""Quasi-de Sitter background and mode-chain coefficients.

Everything downstream is parametrized by two per-(eta, k) numbers:

    mu2      = k / M_P = k              (dimensionless dissipative coefficient)
    coupling = |z'/z| = 1/|eta|         (closed-system coupling, inverse time)

with z = sqrt(2 eps) a and a(eta) = -1/(H eta) for conformal time eta < 0,
so z'/z = a'/a = -1/eta at constant slow-roll eps.  Units are Planck units
throughout, M_P = 1; a mode has one fixed comoving k, so mu2' = 0.
Wavenumber labels in Mpc^-1 are mapped onto the internal dimensionless grid
by the pipeline, never here.

The ladder coefficients of the tridiagonal mode chain are

    b_n = n |z'/z|          (n >= 1, b_0 = 0)
    c_n = i (2n+1) k        (stored as the real magnitude (2n+1) k)

The imaginary unit on c_n is a convention applied only when the chain is
assembled into a matrix (see LanczosChain.matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CouplingCoefficients",
    "LanczosChain",
    "couplings",
    "lanczos_chain",
]


@dataclass(frozen=True)
class CouplingCoefficients:
    """Per-(eta, k) coefficients feeding the chain and the squeeze ODEs.

    mu2      : k / M_P (dimensionless)
    coupling : M_P sqrt|1 - mu1^2| = |z'/z| (inverse time); mu1 never appears
               alone, only through this combination
    """

    mu2: float
    coupling: float

    def __post_init__(self):
        if not 0 <= self.mu2 < math.inf:
            raise ValueError(f"mu2 must be >= 0 and finite, got mu2={self.mu2}")
        if not 0 <= self.coupling < math.inf:
            raise ValueError(f"coupling must be >= 0 and finite, got coupling={self.coupling}")


@dataclass(frozen=True)
class LanczosChain:
    """Ladder coefficients b_n, c_n for n = 0..n_max, as tuples of floats.

    b     : off-diagonal (closed-system) coefficients, b[0] = 0
    c_mag : real magnitudes (2n+1) k of the diagonal (open-system)
            coefficients c_n = i * c_mag[n], the c~_n of the recursion
    """

    b: tuple[float, ...]
    c_mag: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.b)

    def matrix(self, n: int) -> tuple[tuple[complex, ...], ...]:
        """Dense n x n chain operator L_n on the first n basis vectors, as rows.

        The i-convention is applied here: c_n = i c_mag[n] gives the diagonal
        entry -i c_n = c_mag[n]; b_1 .. b_{n-1} sit symmetrically beside it.
        """
        if n < 1:
            raise ValueError("empty chain space: dimension must be >= 1")
        if len(self) < n:
            raise ValueError(f"chain supplies {len(self)} coefficients, need {n}")
        rows = [[0j] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = complex(self.c_mag[i])
        for i in range(1, n):
            rows[i - 1][i] = rows[i][i - 1] = complex(self.b[i])
        return tuple(map(tuple, rows))


def couplings(eta: float, k: float) -> CouplingCoefficients:
    """Coupling coefficients at conformal time eta for comoving wavenumber k.

    At horizon crossing (eta = -1/k) coupling * |eta| = 1 and coupling = mu2
    exactly.
    """
    if not -math.inf < eta < 0:
        raise ValueError(f"conformal time must be < 0 (inflation) and finite, got eta={eta}")
    if not 0 < k < math.inf:
        raise ValueError(f"wavenumber must be > 0 and finite, got k={k}")
    return CouplingCoefficients(mu2=k, coupling=-1.0 / eta)


def lanczos_chain(n_max: int, eta: float, k: float) -> LanczosChain:
    """Ladder coefficients b_n = n |z'/z| and c_n magnitudes (2n+1) k, n = 0..n_max.

    b_n grows without bound in n (linearly), the signature of an infinite
    maximally-growing chain; c_n magnitudes are affine in n with increment 2k.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got n_max={n_max}")
    if not 0 < k < math.inf:
        raise ValueError(f"wavenumber must be > 0 and finite, got k={k}")
    if not -math.inf < eta < 0:
        raise ValueError(f"conformal time must be < 0 (inflation) and finite, got eta={eta}")
    rate = -1.0 / eta
    n = [float(i) for i in range(n_max + 1)]
    return LanczosChain(
        b=tuple(i * rate for i in n), c_mag=tuple((2.0 * i + 1.0) * k for i in n)
    )

"""Tridiagonal chain operator, its characteristic polynomials, and the
paired-excitation amplitude series of the dissipative squeezed vacuum.

The chain operator acts on the paired-excitation basis |n, n> as

    L |n) = -i c_n |n) + b_{n+1} |n+1) + b_n |n-1),

with b_n real positive and c_n = i c~_n purely imaginary, so the assembled
matrix carries the real diagonal c~_n = -i c_n = (2n+1) k and symmetric
off-diagonals b_n.  Its leading principal characteristic polynomials
P_n(x) = det(x I - L_n) obey the three-term recurrence

    P_{n+1}(x) = (x - c~_n) P_n(x) - b_n^2 P_{n-1}(x),   P_0 = 1, P_1 = x - c~_0

(the second-kind Meixner family for this coefficient set).
characteristic_poly_residual checks that identity through an independent
continuant expansion of the matrix entries.

The dissipative two-mode squeezed vacuum has the geometric amplitude series

    psi_n = sech(r)/(1 + mu2 tanh r) * [ sqrt|1-mu1^2| *
            (-e^{2 i phi} tanh r) / (1 + mu2 tanh r) ]^n

over |n, n>, in Planck units (M_P = 1, so mu2 = k and sqrt|1-mu1^2| =
|z'/z|).  It reduces at mu2 -> 0, |1-mu1^2| -> 1 to the pure two-mode
squeezed state psi_n = (-1)^n e^{2 i n phi} tanh^n(r) / cosh(r).  The series
is returned unnormalized: for mu2 != 0 its norm is not 1, and that deficit is
itself a dissipation diagnostic, so it is exposed rather than hidden
(``squared_norm``; a caller divides by its square root to normalize).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .background import CouplingCoefficients, LanczosChain

__all__ = [
    "TridiagonalLiouvillian",
    "OtmssAmplitudes",
    "AmplitudeDivergenceError",
    "build_liouvillian",
    "meixner_poly",
    "characteristic_poly_residual",
    "otmss_amplitudes",
    "tmss_amplitudes",
]


class AmplitudeDivergenceError(ValueError):
    """Raised when the amplitude series has geometric ratio >= 1."""


@dataclass(frozen=True)
class TridiagonalLiouvillian:
    """Matrix form of the chain operator on the first N basis vectors.

    diagonal    : complex entries -i c_n = c~_n (real-valued by convention)
    offdiagonal : real entries b_1 .. b_{N-1}, placed symmetrically
    """

    dimension: int
    diagonal: tuple[complex, ...]
    offdiagonal: tuple[float, ...]

    def matrix(self) -> tuple[tuple[complex, ...], ...]:
        """Dense N x N complex matrix as a tuple of rows."""
        rows = [[0j] * self.dimension for _ in range(self.dimension)]
        for i, d in enumerate(self.diagonal):
            rows[i][i] = d
        for i, b in enumerate(self.offdiagonal):
            rows[i][i + 1] = rows[i + 1][i] = complex(b)
        return tuple(map(tuple, rows))


@dataclass(frozen=True)
class OtmssAmplitudes:
    """Amplitude series psi_n, n = 0..n_max, over the paired basis.

    coefficients          : complex psi_n, as a tuple
    truncation_tail_bound : closed-form sum_{n > n_max} |psi_n|^2
    squared_norm          : analytic infinite-series sum |psi_n|^2
    """

    coefficients: tuple[complex, ...]
    truncation_tail_bound: float
    squared_norm: float


def build_liouvillian(chain: LanczosChain, dimension: int) -> TridiagonalLiouvillian:
    """Assemble the N x N tridiagonal matrix from the chain coefficients.

    The i-convention is applied here: the stored real magnitudes c_mag[n]
    become diagonal entries -i * (i * c_mag[n]) = c_mag[n].
    """
    if dimension < 1:
        raise ValueError("empty chain space: dimension must be >= 1")
    if len(chain) < dimension:
        raise ValueError(
            f"chain supplies {len(chain)} coefficients, need {dimension}"
        )
    diagonal = tuple(complex(c) for c in chain.c_mag[:dimension])
    offdiagonal = tuple(float(b) for b in chain.b[1:dimension])
    return TridiagonalLiouvillian(
        dimension=dimension, diagonal=diagonal, offdiagonal=offdiagonal
    )


def meixner_poly(n: int, x: complex, chain: LanczosChain) -> complex:
    """P_n(x) by the forward three-term recurrence.

    P_0 = 1, P_1 = x - c~_0, P_{j+1} = (x - c~_j) P_j - b_j^2 P_{j-1}.
    """
    if n < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n}")
    if n > 0 and len(chain) < n:
        raise ValueError(f"chain supplies {len(chain)} coefficients, need {n}")
    p_prev = 1.0 + 0.0j
    if n == 0:
        return p_prev
    c = chain.c_mag
    b = chain.b
    p = x - c[0]
    for j in range(1, n):
        p, p_prev = (x - c[j]) * p - (b[j] ** 2) * p_prev, p
    return p


def characteristic_poly_residual(n: int, x: complex, chain: LanczosChain) -> float:
    """|P_n(x) - det(x I - L_n)| with the determinant from the matrix entries.

    The determinant side uses the continuant expansion on the assembled
    matrix (top-left leading minors), not the recursion coefficients, so the
    two routes share no arithmetic.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    liou = build_liouvillian(chain, n)
    m = liou.matrix()
    d_prev = 1.0 + 0.0j
    d = x - m[0][0]
    for j in range(1, n):
        d, d_prev = (x - m[j][j]) * d - m[j - 1][j] * m[j][j - 1] * d_prev, d
    return abs(meixner_poly(n, x, chain) - d)


def _geometric_series(
    prefactor: complex,
    ratio: complex,
    n_max: int | None,
    tail_tol: float,
) -> OtmssAmplitudes:
    """Assemble psi_n = prefactor * ratio^n with closed-form tail accounting."""
    rho2 = abs(ratio) ** 2
    p2 = abs(prefactor) ** 2
    squared_norm = p2 / (1.0 - rho2)

    if n_max is None:
        # smallest n with |psi_0|^2 rho^{2(n+1)} / (1 - rho^2) below tail_tol
        if rho2 == 0.0:
            n_max = 0
        else:
            n_max = max(0, math.ceil(math.log(tail_tol / squared_norm) / math.log(rho2) - 1.0))
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")

    # cumulative powers of the ratio keep consecutive ratios exact to one rounding
    coeffs = [complex(prefactor)]
    power = 1.0 + 0.0j
    for _ in range(n_max):
        power *= ratio
        coeffs.append(prefactor * power)
    return OtmssAmplitudes(
        coefficients=tuple(coeffs),
        truncation_tail_bound=squared_norm * rho2 ** (n_max + 1),
        squared_norm=squared_norm,
    )


def otmss_amplitudes(
    r: float,
    phi: float,
    couplings: CouplingCoefficients,
    n_max: int | None = None,
    tail_tol: float = 1e-13,
) -> OtmssAmplitudes:
    """Amplitude series of the dissipative squeezed vacuum at (r, phi).

    sqrt|1 - mu1^2| is couplings.coupling (M_P sqrt|1 - mu1^2|, M_P = 1).  With
    n_max=None the truncation is chosen so the geometric tail of |psi_n|^2
    falls below tail_tol.  Raises AmplitudeDivergenceError when the geometric
    ratio reaches 1 (the series no longer converges).
    """
    if r < 0:
        raise ValueError(f"squeeze amplitude must be >= 0, got r={r}")
    root = couplings.coupling  # sqrt|1 - mu1^2|
    t = math.tanh(r)
    denom = 1.0 + couplings.mu2 * t
    rho = root * t / denom
    if rho >= 1.0:
        raise AmplitudeDivergenceError(
            f"amplitude series diverges: ratio {rho:.6g} >= 1 "
            f"(r={r}, sqrt|1-mu1^2|={root}, mu2={couplings.mu2})"
        )
    prefactor = (1.0 / math.cosh(r)) / denom
    ratio = root * (-cmath.exp(2j * phi) * t) / denom
    return _geometric_series(prefactor, ratio, n_max, tail_tol)


def tmss_amplitudes(
    r: float,
    phi: float,
    n_max: int | None = None,
    tail_tol: float = 1e-13,
) -> OtmssAmplitudes:
    """Pure two-mode squeezed state: psi_n = (-1)^n e^{2 i n phi} tanh^n(r)/cosh(r).

    The infinite series has unit norm exactly; the returned tail bound is
    tanh(r)^{2(n_max+1)}.
    """
    if r < 0:
        raise ValueError(f"squeeze amplitude must be >= 0, got r={r}")
    prefactor = 1.0 / math.cosh(r)
    ratio = -cmath.exp(2j * phi) * math.tanh(r)
    return _geometric_series(prefactor, ratio, n_max, tail_tol)

"""Recurrence polynomials of the tridiagonal chain operator, and the
paired-excitation amplitude series of the dissipative squeezed vacuum.

The chain operator acts on the paired-excitation basis |n, n> as

    L |n) = -i c_n |n) + b_{n+1} |n+1) + b_n |n-1),

with b_n real positive and c_n = i c~_n purely imaginary, so its matrix
(LanczosChain.matrix) carries the real diagonal c~_n = -i c_n = (2n+1) k and
symmetric off-diagonals b_n.  Its leading principal characteristic
polynomials P_n(x) = det(x I - L_n) obey the three-term recurrence

    P_{n+1}(x) = (x - c~_n) P_n(x) - b_n^2 P_{n-1}(x),   P_0 = 1, P_1 = x - c~_0

(the second-kind Meixner family for this coefficient set).
characteristic_poly_residual checks that identity against a determinant
taken by Gaussian elimination on the dense matrix.

The dissipative two-mode squeezed vacuum has the geometric amplitude series

    psi_n = sech(r)/(1 + mu2 tanh r) * [ sqrt|1-mu1^2| *
            (-e^{2 i phi} tanh r) / (1 + mu2 tanh r) ]^n

over |n, n>, in Planck units (M_P = 1, so mu2 = k and sqrt|1-mu1^2| =
|z'/z|).  It reduces at mu2 -> 0, |1-mu1^2| -> 1 to the pure two-mode
squeezed state psi_n = (-1)^n e^{2 i n phi} tanh^n(r) / cosh(r), which
tmss_amplitudes evaluates through the same series.  The series is returned
unnormalized: for mu2 != 0 its norm is not 1, and that deficit is itself a
dissipation diagnostic, so it is exposed rather than hidden
(``squared_norm``; a caller divides by its square root to normalize).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .background import CouplingCoefficients, LanczosChain

__all__ = [
    "OtmssAmplitudes",
    "AmplitudeDivergenceError",
    "meixner_poly",
    "characteristic_poly_residual",
    "otmss_amplitudes",
    "tmss_amplitudes",
]

# automatic truncation: the geometric tail of |psi_n|^2 falls below this
_TAIL_TOL = 1e-13
_MAX_AUTO_TERMS = 10**6  # the automatic term count grows like e^{2r}


class AmplitudeDivergenceError(ValueError):
    """Raised when the amplitude series has geometric ratio >= 1."""


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


def meixner_poly(n: int, x: complex, chain: LanczosChain) -> complex:
    """P_n(x) by the forward three-term recurrence.

    P_0 = 1, P_1 = x - c~_0, P_{j+1} = (x - c~_j) P_j - b_j^2 P_{j-1}.
    """
    if n < 0:
        raise ValueError(f"polynomial degree must be >= 0, got n={n}")
    if n > 0 and len(chain) < n:
        raise ValueError(f"chain supplies {len(chain)} coefficients, need n={n}")
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
    """|P_n(x) - det(x I - L_n)| with the determinant from the dense matrix.

    The determinant is taken by Gaussian elimination with partial pivoting
    on every entry of x I - L_n, not by a recurrence on its band, so an
    entry off the band moves it while P_n cannot see it.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    a = [
        [(x if i == j else 0.0) - entry for j, entry in enumerate(row)]
        for i, row in enumerate(chain.matrix(n))
    ]
    det = 1.0 + 0.0j
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(a[i][j]))
        if p != j:
            a[j], a[p] = a[p], a[j]
            det = -det
        pivot = a[j][j]
        det *= pivot
        if pivot == 0:
            break  # a zero column: the determinant is 0
        for i in range(j + 1, n):
            f = a[i][j] / pivot
            if f:
                for col in range(j + 1, n):
                    a[i][col] -= f * a[j][col]
    return abs(meixner_poly(n, x, chain) - det)


def otmss_amplitudes(
    r: float,
    phi: float,
    couplings: CouplingCoefficients,
    n_max: int | None = None,
) -> OtmssAmplitudes:
    """Amplitude series of the dissipative squeezed vacuum at (r, phi).

    sqrt|1 - mu1^2| is couplings.coupling (M_P sqrt|1 - mu1^2|, M_P = 1).  With
    n_max=None the truncation is chosen so the geometric tail of |psi_n|^2
    falls below 1e-13; a ValueError names the count when that takes more
    than 10^6 terms (from r ~ 5.9 at mu2 = 0); pass n_max there.  Raises
    AmplitudeDivergenceError when the geometric ratio reaches 1 (the series
    no longer converges).
    """
    if not 0 <= r < math.inf:
        raise ValueError(f"squeeze amplitude must be >= 0 and finite, got r={r}")
    if not math.isfinite(2.0 * phi):  # the series reads the angle as 2 phi
        raise ValueError(f"squeeze angle must lie within +-DBL_MAX/2, got phi={phi}")
    root = couplings.coupling  # sqrt|1 - mu1^2|
    t = math.tanh(r)
    e = math.exp(-r)
    sech = 2.0 * e / (1.0 + e * e)  # 1/cosh r would overflow past r ~ 710
    denom = 1.0 + couplings.mu2 * t
    rho = root * t / denom
    if rho >= 1.0:
        raise AmplitudeDivergenceError(
            f"amplitude series diverges: ratio {rho:.6g} >= 1 "
            f"(r={r}, sqrt|1-mu1^2|={root}, mu2={couplings.mu2})"
        )
    prefactor = sech / denom
    ratio = root * (-cmath.exp(2j * phi) * t) / denom
    rho2 = abs(ratio) ** 2
    # 1 - rho without cancellation, from 1 - tanh r = e^{-r} sech r
    one_minus_rho = (e * sech + (couplings.mu2 + (1.0 - root)) * t) / denom
    squared_norm = prefactor**2 / (one_minus_rho * (1.0 + rho))

    if n_max is None:
        # smallest n with |psi_0|^2 rho^{2(n+1)} / (1 - rho^2) below _TAIL_TOL;
        # the norm is 0 where every psi_n underflows
        if rho2 == 0.0 or squared_norm == 0.0:
            n_max = 0
        else:
            n_max = max(0, math.ceil(math.log(_TAIL_TOL / squared_norm) / math.log(rho2) - 1.0))
        if n_max > _MAX_AUTO_TERMS:
            raise ValueError(
                f"automatic truncation at r={r} needs {n_max} terms, more than "
                f"{_MAX_AUTO_TERMS}; pass n_max"
            )
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got n_max={n_max}")

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


def tmss_amplitudes(r: float, phi: float, n_max: int | None = None) -> OtmssAmplitudes:
    """Pure two-mode squeezed state: psi_n = (-1)^n e^{2 i n phi} tanh^n(r)/cosh(r).

    The dissipative series at mu2 = 0 and unit coupling.  The infinite series
    has unit norm exactly; the returned tail bound is tanh(r)^{2(n_max+1)}.
    """
    return otmss_amplitudes(r, phi, CouplingCoefficients(mu2=0.0, coupling=1.0), n_max)

"""Bogoliubov map between the squeezed vacuum and the Bunch-Davies modes.

The de Sitter Bunch-Davies mode function is

    v_BD(eta, k) = e^{-i k eta} / sqrt(2k) * (1 - i/(k eta)),    eta < 0,

and the squeezed-state mode is its linear image

    v_z = alpha v_BD + beta v_BD*,     |alpha|^2 - |beta|^2 = 1,

with coefficients fixed by the squeeze parameters:

    alpha = cosh r,      beta = -e^{-i phi} sinh r.

The occupation of the squeezed vacuum relative to Bunch-Davies is
|beta|^2 = sinh^2 r.  The pipeline evaluates mode_function against bd_mode at
each mode's evaluation point: |v_z/v_BD|^2 tends to the spectrum ratio
gamma_z only in the super-horizon limit v_BD*/v_BD -> -1 (see spectrum).

alpha is carried as a complex number even though this parametrization makes
it real, so a phase convention with complex alpha stays representable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .squeeze_dynamics import SqueezeState

__all__ = [
    "BogoliubovPair",
    "alpha_beta",
    "bd_mode",
    "coefficients",
    "mode_function",
    "occupation",
    "wronskian_residual",
]


@dataclass(frozen=True)
class BogoliubovPair:
    """Coefficient pair (alpha, beta) with the Wronskian defect of the stored
    doubles attached, relative to |alpha|^2 (see coefficients)."""

    alpha: complex
    beta: complex
    wronskian_residual: float


def bd_mode(eta: float, k: float) -> complex:
    """Bunch-Davies mode e^{-i k eta}/sqrt(2k) * (1 - i/(k eta)) for eta < 0."""
    if not -math.inf < eta < 0:
        raise ValueError(f"conformal time must be < 0 (inflation) and finite, got eta={eta}")
    if not 0 < k < math.inf:
        raise ValueError(f"wavenumber must be > 0 and finite, got k={k}")
    return cmath.exp(-1j * k * eta) / math.sqrt(2.0 * k) * (1.0 - 1j / (k * eta))


# Dekker's splitting constant 2^27 + 1: a * _SPLIT separates the high 26
# bits of a double from the rest
_SPLIT = 134217729.0


def _dd_sq(h: float) -> tuple[float, float]:
    """h^2 as the double-double p + e: Dekker's TwoProduct of h with itself
    (Numer. Math. 18, 1971), exact while h^2 neither overflows nor
    underflows."""
    p = h * h
    t = _SPLIT * h
    hh = t - (t - h)
    hl = h - hh
    return p, ((hh * hh - p) + 2.0 * hh * hl) + hl * hl


def wronskian_residual(alpha: complex, beta: complex) -> float:
    """| |alpha|^2 - |beta|^2 - 1 | of the stored pair, exactly rounded.

    Each square splits exactly into two doubles and math.fsum adds the
    nine terms exactly, so the only rounding is the final one (for components
    whose squares neither overflow nor underflow a double).  This measures
    the doubles actually stored, so it bottoms out at the ulp of |beta|^2
    (about 1.2e-12 for r = 5).
    """
    terms = [-1.0]
    for v, sign in ((alpha.real, 1.0), (alpha.imag, 1.0), (beta.real, -1.0), (beta.imag, -1.0)):
        p, e = _dd_sq(v)
        terms += (sign * p, sign * e)
    return abs(math.fsum(terms))


def alpha_beta(state: SqueezeState) -> tuple[complex, complex]:
    """(alpha, beta) = (cosh r, -e^{-i phi} sinh r): coefficients' pair, without its residual."""
    return complex(math.cosh(state.r), 0.0), -cmath.exp(-1j * state.phi) * math.sinh(state.r)


def coefficients(state: SqueezeState) -> BogoliubovPair:
    """alpha = cosh r, beta = -e^{-i phi} sinh r for the given squeeze state.

    The attached residual is wronskian_residual(alpha, beta) / |alpha|^2: the
    stored pair's defect in units of cosh^2 r, a few ulps at any r.
    """
    alpha, beta = alpha_beta(state)
    return BogoliubovPair(
        alpha=alpha,
        beta=beta,
        wronskian_residual=wronskian_residual(alpha, beta) / abs(alpha) ** 2,
    )


def mode_function(state: SqueezeState, eta: float, k: float) -> complex:
    """Squeezed-vacuum mode v_z = alpha v_BD + beta v_BD* at (eta, k)."""
    alpha, beta = alpha_beta(state)
    v = bd_mode(eta, k)
    return alpha * v + beta * v.conjugate()


def occupation(state: SqueezeState) -> float:
    """Pair occupation number |beta|^2 = sinh^2 r of the squeezed vacuum."""
    return math.sinh(state.r) ** 2

"""Bogoliubov map between the squeezed vacuum and the Bunch-Davies modes.

The de Sitter Bunch-Davies mode function is

    v_BD(eta, k) = e^{-i k eta} / sqrt(2k) * (1 - i/(k eta)),    eta < 0,

and the squeezed-state mode is its linear image

    v_z = alpha v_BD + beta v_BD*,     |alpha|^2 - |beta|^2 = 1,

with coefficients fixed by the squeeze parameters:

    alpha = cosh r,      beta = -e^{-i phi} sinh r.

The pair-creation kernel relating the two vacua is beta*/alpha* =
-e^{i phi} tanh r (always inside the unit disk), and the occupation of the
squeezed vacuum relative to Bunch-Davies is |beta|^2 = sinh^2 r.

alpha is carried as a complex number even though this parametrization makes
it real, so a phase convention with complex alpha stays representable.

Two Wronskian diagnostics live here and they answer different questions.
The residual attached to a pair by coefficients() evaluates the defining
formulas at (r, phi) in double-double arithmetic, relative to |alpha|^2 =
cosh^2 r: it certifies that the construction satisfies the normalization
identity (to ~1e-32 at any r).  wronskian_residual(alpha, beta) instead
measures the stored double-precision numbers themselves, exactly; at r = 5
the components have magnitude cosh(5) ~ 74 and |beta|^2 has an ulp near
1.2e-12, so the stored-value defect of any rounded pair sits at that
representational floor no matter how it was built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .squeeze_dynamics import SqueezeState

__all__ = [
    "BogoliubovPair",
    "bd_mode",
    "coefficients",
    "mode_function",
    "occupation",
    "vacuum_kernel",
    "wronskian_residual",
]


@dataclass(frozen=True)
class BogoliubovPair:
    """Coefficient pair (alpha, beta) with its Wronskian defect attached,
    relative to |alpha|^2 (see _construction_residual)."""

    alpha: complex
    beta: complex
    wronskian_residual: float


def bd_mode(eta: float, k: float) -> complex:
    """Bunch-Davies mode e^{-i k eta}/sqrt(2k) * (1 - i/(k eta)) for eta < 0."""
    if eta >= 0:
        raise ValueError(f"conformal time must be < 0 (inflation), got eta={eta}")
    if k <= 0:
        raise ValueError(f"wavenumber must be > 0, got k={k}")
    return cmath.exp(-1j * k * eta) / math.sqrt(2.0 * k) * (1.0 - 1j / (k * eta))


# Dekker's splitting constant 2^27 + 1: a * _SPLIT separates the high 26
# bits of a double from the rest
_SPLIT = 134217729.0


def _dd_add(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """Double-double sum: TwoSum of the high parts, then the low parts."""
    s = ah + bh
    v = s - ah
    e = (ah - (s - v)) + (bh - v) + al + bl
    hi = s + e
    return hi, e - (hi - s)


def _dd_sq(h: float, l: float) -> tuple[float, float]:
    """Double-double square of h + l: Dekker's TwoProduct of h with itself
    (Numer. Math. 18, 1971) plus the cross term.  For l = 0 the pair is
    h^2 exactly, while h^2 neither overflows nor underflows."""
    p = h * h
    t = _SPLIT * h
    hh = t - (t - h)
    hl = h - hh
    e = ((hh * hh - p) + 2.0 * hh * hl) + hl * hl + 2.0 * h * l
    hi = p + e
    return hi, e - (hi - p)


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
        p, e = _dd_sq(v, 0.0)
        terms += (sign * p, sign * e)
    return abs(math.fsum(terms))


def _unit_defect(h: float, l: float) -> float:
    """(1 + x)^2 - (1 - x)^2 - 4x for x = h + l in double-double arithmetic:
    zero in exact arithmetic, so what is left is the rounding."""
    plus = _dd_sq(*_dd_add(1.0, 0.0, h, l))
    minus = _dd_sq(*_dd_add(1.0, 0.0, -h, -l))
    d = _dd_add(*_dd_add(*plus, -minus[0], -minus[1]), -4.0 * h, -4.0 * l)
    return d[0] + d[1]


def _construction_residual(r: float, phi: float) -> float:
    """Identity defect |cosh^2 r - |e^{-i phi}|^2 sinh^2 r - 1| / cosh^2 r of
    the coefficient formulas, in double-double arithmetic.

    The formulas are taken from q = e^{-r} and t = tan(phi/2) (or its
    reciprocal, whichever lies in [-1, 1]): with w = q^2 and u = t^2,
    2q cosh r = 1 + w, 2q sinh r = 1 - w and |e^{-i phi}|^2 =
    ((1 - u)^2 + 4u)/(1 + u)^2, so both identities are _unit_defect's.
    Scaled by 4q^2, every term is at most 4, so no r overflows.
    """
    q = math.exp(-r)
    t = math.tan(0.5 * phi)
    if abs(t) > 1.0:
        t = 1.0 / t  # cot(phi/2) gives the same |e^{-i phi}|^2 form
    w, u = q * q, t * t
    # 4q^2 (cosh^2 - sinh^2 - 1) and (1 + u)^2 (1 - |e^{-i phi}|^2)
    hyper = _unit_defect(*_dd_sq(q, 0.0))
    phase = _unit_defect(*_dd_sq(t, 0.0))
    return abs(hyper + phase * ((1.0 - w) / (1.0 + u)) ** 2) / (1.0 + w) ** 2


def _alpha_beta(state: SqueezeState) -> tuple[complex, complex]:
    """(alpha, beta) = (cosh r, -e^{-i phi} sinh r), without the residual."""
    return complex(math.cosh(state.r), 0.0), -cmath.exp(-1j * state.phi) * math.sinh(state.r)


def coefficients(state: SqueezeState) -> BogoliubovPair:
    """alpha = cosh r, beta = -e^{-i phi} sinh r for the given squeeze state.

    The attached residual certifies the construction identity (see module
    docstring); use wronskian_residual() to interrogate a stored pair.
    """
    alpha, beta = _alpha_beta(state)
    return BogoliubovPair(
        alpha=alpha,
        beta=beta,
        wronskian_residual=_construction_residual(state.r, state.phi),
    )


def mode_function(state: SqueezeState, eta: float, k: float) -> complex:
    """Squeezed-vacuum mode v_z = alpha v_BD + beta v_BD* at (eta, k)."""
    alpha, beta = _alpha_beta(state)
    v = bd_mode(eta, k)
    return alpha * v + beta * v.conjugate()


def occupation(state: SqueezeState) -> float:
    """Pair occupation number |beta|^2 = sinh^2 r of the squeezed vacuum."""
    return math.sinh(state.r) ** 2


def vacuum_kernel(state: SqueezeState) -> complex:
    """Pair-creation kernel beta*/alpha* = -e^{i phi} tanh r; |kernel| < 1."""
    return -cmath.exp(1j * state.phi) * math.tanh(state.r)

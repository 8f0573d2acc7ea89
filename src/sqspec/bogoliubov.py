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
formulas at (r, phi) in extended precision: it certifies that the
construction satisfies the normalization identity (to ~1e-15 for r <= 5).
wronskian_residual(alpha, beta) instead measures the stored double-precision
numbers themselves; at r = 5 the components have magnitude cosh(5) ~ 74 and
|beta|^2 has an ulp near 1.2e-12, so the stored-value defect of any rounded
pair sits at that representational floor no matter how it was built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

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
    """Coefficient pair (alpha, beta) with its Wronskian defect attached."""

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


def wronskian_residual(alpha: complex, beta: complex) -> float:
    """| |alpha|^2 - |beta|^2 - 1 | of the stored pair, in extended precision.

    This measures the doubles actually stored, so it bottoms out at the
    ulp of |beta|^2 (about 1.2e-12 for r = 5).
    """
    ld = np.longdouble
    a2 = ld(alpha.real) ** 2 + ld(alpha.imag) ** 2
    b2 = ld(beta.real) ** 2 + ld(beta.imag) ** 2
    return float(abs(a2 - b2 - ld(1.0)))


def _construction_residual(r: float, phi: float) -> float:
    """Identity defect of the coefficient formulas at (r, phi) in extended
    precision: |cosh^2 - |e^{-i phi}|^2 sinh^2 - 1| with every factor in
    long double."""
    rl = np.longdouble(r)
    pl = np.longdouble(phi)
    ch, sh = np.cosh(rl), np.sinh(rl)
    phase2 = np.cos(pl) ** 2 + np.sin(pl) ** 2
    return float(abs(ch * ch - phase2 * sh * sh - np.longdouble(1.0)))


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

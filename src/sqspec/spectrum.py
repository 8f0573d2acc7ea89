"""Curvature power spectrum of the squeezed vacuum against the BD baseline.

The spectrum ratio in the super-horizon limit (where v_BD*/v_BD -> -1) is

    gamma_z = |alpha - beta|^2 = cosh(2r) + sinh(2r) cos(phi),

bounded by e^{-2r} <= gamma_z <= e^{2r}.  Both sides of the identity are
evaluated on every call and must agree; a disagreement signals a broken
phase convention somewhere upstream, so it raises instead of returning.
The pipeline takes this limit of the state at each mode's evaluation point;
at horizon crossing it is not the mode-function ratio |v_z/v_BD|^2 there,
and summary.txt reports the largest relative gap between the two.

The observationally anchored BD baseline is the power law

    P_R(k) = A_s (k / k_*)^{n_s - 1}

with the anchors A_s, n_s and k_* taken from SweepConfig (a_s, n_s, k_pivot;
Planck values by default); the squeezed power is that power law times gamma_z.
bd_reference_power lives in config, which checks the anchors with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bogoliubov import alpha_beta
from .squeeze_dynamics import SqueezeState

__all__ = ["SpectrumRecord", "gamma_ratio", "fit_tilt"]

_GAMMA_IDENTITY_RTOL = 1e-12
# fewest records the power-law tilt fit is run on
_FIT_MIN_RECORDS = 3


@dataclass(frozen=True)
class SpectrumRecord:
    """Per-mode output row; power_otmss = power_bd * gamma by construction."""

    k: float
    r: float
    phi: float
    occupation: float
    gamma: float
    power_bd: float
    power_otmss: float
    wronskian_residual: float


def gamma_ratio(state: SqueezeState) -> float:
    """Spectrum ratio cosh(2r) + sinh(2r) cos(phi), cross-checked against
    |alpha - beta|^2 from the Bogoliubov pair.

    The two routes must agree to 1e-12 of the hyperbolic scale cosh(2r);
    near phi = pi both expressions cancel down from that scale, so this is
    the tightest comparison double arithmetic supports (a convention bug
    shows up at the full scale, 12 orders above the bound).
    """
    scale = math.cosh(2.0 * state.r)
    closed = scale + math.sinh(2.0 * state.r) * math.cos(state.phi)
    alpha, beta = alpha_beta(state)
    direct = abs(alpha - beta) ** 2
    if abs(direct - closed) > _GAMMA_IDENTITY_RTOL * scale:
        raise AssertionError(
            f"spectrum-ratio identity broken: closed form {closed!r} vs "
            f"|alpha-beta|^2 {direct!r} at r={state.r}, phi={state.phi}"
        )
    return closed


def fit_tilt(records: Sequence[SpectrumRecord], pivot: float) -> tuple[float, float]:
    """Least-squares power-law fit of the squeezed spectrum.

    Fits ln(power_otmss) on ln(k/pivot); returns (exp(intercept), 1 + slope),
    i.e. the recovered amplitude at the pivot and the recovered tilt.  The
    fit is the closed-form straight line through the centred data, with
    every sum taken exactly rounded by math.fsum.
    """
    n = _FIT_MIN_RECORDS
    if len(records) < n:
        raise ValueError(f"need at least {n} records to fit, got {len(records)}")
    if len({rec.k for rec in records}) < n:
        raise ValueError(f"degenerate k grid: need at least {n} distinct wavenumbers")
    xs = [math.log(rec.k / pivot) for rec in records]
    ys = [math.log(rec.power_otmss) for rec in records]
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    slope = math.fsum(d * (y - y_mean) for d, y in zip(dx, ys)) / math.fsum(d * d for d in dx)
    return math.exp(y_mean - slope * x_mean), 1.0 + slope

"""Evolution of the squeezing amplitude r_k and rotation angle phi_k.

The flow in conformal time eta (prime = d/deta, all in Planck units) is

    r' = [ -A sinh(2r) cos(2 phi) - sinh(2r) mu2' ]
         / [ sinh(2r) + 2 mu2 cosh^2(r) ]                      (conformal form)

    r' = - tanh(r) (mu2' + A cos 2 phi) / (tanh r + mu2)       (transformed form)

    phi' = -M_P mu2 + (1/2) sin(2 phi) [ A tanh(r)/(1 + mu2 tanh r)
                                         + M_P (coth r + mu2) ]

where A is the closed-coupling factor.  Two conventions are supported, since
the coupling enters the parent Hamiltonian as M_P sqrt|1 - mu1^2| = |z'/z|
but the flow above squares it:

    coupling_power="literal"                A = M_P |1 - mu1^2| = (z'/z)^2 / M_P
    coupling_power="hamiltonian-consistent" A = |z'/z|

The two r' forms are algebraically identical (sinh 2r / (sinh 2r +
2 mu2 cosh^2 r) == tanh r / (tanh r + mu2)); they are kept as separate code
paths so they can cross-check each other.  A third right-hand side,
rhs_closed_reference, is the analytic mu2 = mu2' = 0 limit (the pure
two-mode-squeezed flow) used as a weak-dissipation oracle.

Integration runs in the dimensionless variable x = -k eta (d/dx =
-(1/k) d/deta), from deep sub-horizon x_start >> 1 down through horizon
crossing x = 1 to x_end.  r = 0 is a coordinate singularity of the angle
equation (coth r), so trajectories are seeded with a tiny positive r and the
default initial angle pi/4 sits at the fixed point of the r equation.  See
_integrators for the stiffness treatment of the coth(r) relaxation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import _integrators as _eng
from .background import BackgroundParams, CouplingCoefficients, couplings as _bg_couplings

if TYPE_CHECKING:  # pragma: no cover
    from .config import SweepConfig

__all__ = [
    "SqueezeState",
    "IntegratorStats",
    "Trajectory",
    "ModeResult",
    "CappedGrowthWarning",
    "StepSizeUnderflowError",
    "StepBudgetError",
    "rhs_conformal",
    "rhs_transformed",
    "rhs_closed_reference",
    "integrate",
    "evolve_grid",
    "wrap_angle",
]

_FORMS = {
    "conformal": _eng.FORM_CONFORMAL,
    "transformed": _eng.FORM_TRANSFORMED,
    "closed-reference": _eng.FORM_CLOSED,
}
_POWERS = {
    "literal": _eng.POWER_LITERAL,
    "hamiltonian-consistent": _eng.POWER_CONSISTENT,
}

DEFAULT_INIT_R = 1e-6
DEFAULT_INIT_PHI = math.pi / 4.0


class CappedGrowthWarning(UserWarning):
    """The squeeze amplitude exceeded the configured cap; values stay finite."""


class StepSizeUnderflowError(RuntimeError):
    """Step size underflowed near a singularity; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


class StepBudgetError(RuntimeError):
    """Step budget exhausted (stiffness bypass disabled or misconfigured)."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


def wrap_angle(phi: float) -> float:
    """Map an accumulated angle to (-pi, pi] for reporting."""
    w = math.remainder(phi, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


@dataclass(frozen=True)
class SqueezeState:
    """Squeeze parameters at one instant: amplitude r >= 0, angle phi
    (stored unwrapped), dimensionless time stamp x = -k eta > 0."""

    r: float
    phi: float
    x: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"squeeze amplitude must be >= 0, got r={self.r}")
        if not self.x > 0:
            raise ValueError(f"time stamp must be > 0, got x={self.x}")

    @property
    def phi_wrapped(self) -> float:
        return wrap_angle(self.phi)


@dataclass(frozen=True)
class IntegratorStats:
    method: str
    n_steps: int
    n_rejected: int = 0
    max_error_estimate: float = 0.0
    n_slaved_steps: int = 0
    capped: bool = False
    clamped_negative: bool = False
    status: str = "ok"


@dataclass(frozen=True)
class Trajectory:
    """Ordered samples of one mode's squeeze evolution (x strictly decreasing)."""

    samples: tuple[SqueezeState, ...]
    k: float
    form: str
    integrator_stats: IntegratorStats

    @property
    def x(self) -> np.ndarray:
        return np.array([s.x for s in self.samples])

    @property
    def r(self) -> np.ndarray:
        return np.array([s.r for s in self.samples])

    @property
    def phi(self) -> np.ndarray:
        return np.array([s.phi for s in self.samples])

    def state_at(self, x: float) -> SqueezeState:
        """Sample recorded exactly at x (raises if x was not a checkpoint)."""
        for s in self.samples:
            if s.x == x:
                return s
        raise KeyError(f"no sample recorded at x={x}")


@dataclass(frozen=True)
class ModeResult:
    """Outcome of one grid mode: evaluated state or an error message."""

    k: float
    state: SqueezeState | None
    error: str | None = None
    stats: IntegratorStats | None = None


def _resolve_rhs_inputs(state, k, params, cc, coupling_power):
    if params is None:
        params = BackgroundParams()
    if cc is None:
        eta = -state.x / k
        cc = _bg_couplings(eta, k, params)
    mp = params.planck_mass
    lam = cc.coupling
    if coupling_power == "literal":
        a_cc = lam * lam / mp
    elif coupling_power == "hamiltonian-consistent":
        a_cc = lam
    else:
        raise ValueError(f"unknown coupling_power {coupling_power!r}")
    return a_cc, cc.mu2, cc.mu2_rate, mp


def rhs_conformal(
    state: SqueezeState,
    k: float,
    params: BackgroundParams | None = None,
    couplings: CouplingCoefficients | None = None,
    coupling_power: str = "literal",
) -> tuple[float, float]:
    """(dr/deta, dphi/deta) of the conformal-form flow at the given state."""
    a_cc, mu2, mu2_rate, mp = _resolve_rhs_inputs(state, k, params, couplings, coupling_power)
    return _eng._rhs_eta(state.r, state.phi, a_cc, mu2, mu2_rate, mp, _eng.FORM_CONFORMAL)


def rhs_transformed(
    state: SqueezeState,
    k: float,
    params: BackgroundParams | None = None,
    couplings: CouplingCoefficients | None = None,
    coupling_power: str = "literal",
) -> tuple[float, float]:
    """(dr/dtau, dphi/dtau) of the transformed-form flow; tau is identified
    with conformal time, so the two forms can be compared directly."""
    a_cc, mu2, mu2_rate, mp = _resolve_rhs_inputs(state, k, params, couplings, coupling_power)
    return _eng._rhs_eta(state.r, state.phi, a_cc, mu2, mu2_rate, mp, _eng.FORM_TRANSFORMED)


def rhs_closed_reference(
    state: SqueezeState,
    k: float,
    params: BackgroundParams | None = None,
    couplings: CouplingCoefficients | None = None,
    coupling_power: str = "literal",
) -> tuple[float, float]:
    """(dr/deta, dphi/deta) of the analytic dissipation-free limit."""
    a_cc, _, _, mp = _resolve_rhs_inputs(state, k, params, couplings, coupling_power)
    return _eng._rhs_eta(state.r, state.phi, a_cc, 0.0, 0.0, mp, _eng.FORM_CLOSED)


def _sample_grid(
    x_start: float,
    x_end: float,
    samples: int | Sequence[float] | None,
) -> np.ndarray:
    """Decreasing checkpoint grid: requested points plus x_start, x = 1
    (when inside the window) and x_end."""
    if samples is None:
        n = max(2, int(math.ceil(12 * math.log10(x_start / x_end))) + 1)
        pts = np.geomspace(x_start, x_end, n)
    elif isinstance(samples, int):
        pts = np.geomspace(x_start, x_end, max(2, samples))
    else:
        pts = np.asarray(samples, dtype=float)
        if pts.size and (pts.max() > x_start or pts.min() < x_end):
            raise ValueError("sample points must lie within [x_end, x_start]")
    extra = [x_start, x_end]
    if x_end < 1.0 < x_start:
        extra.append(1.0)
    xs = np.unique(np.concatenate([pts, np.array(extra)]))[::-1]
    return np.ascontiguousarray(xs)


def integrate(
    k: float,
    x_start: float,
    x_end: float,
    init: SqueezeState | tuple[float, float] | None = None,
    form: str = "conformal",
    *,
    params: BackgroundParams | None = None,
    coupling_power: str = "literal",
    rtol: float = 1e-10,
    atol: float = 1e-10,
    method: str = "adaptive",
    h_fixed: float | None = None,
    samples: int | Sequence[float] | None = None,
    mu2_rate: float = 0.0,
    zero_coupling: bool = False,
    r_cap: float = 30.0,
    stiff_mode: str = "auto",
    stiff_budget: float = 4000.0,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate the selected flow from x_start down to x_end for one mode.

    method="adaptive" is the embedded 5(4) pair with tolerance control (and
    the automatic stiff-window fast path unless stiff_mode="off");
    stiff_budget governs entry to the fast path (the slack must exceed twice
    it); below it the path is left once its lag error exceeds rtol, and in
    any case at a fixed hand-back before x_end (see _integrators);
    method="fixed" is the classical RK4 cross-validator with step h_fixed
    subdivided exactly into each checkpoint segment.

    Raises StepSizeUnderflowError / StepBudgetError with the partial
    trajectory attached; emits CappedGrowthWarning when r exceeds r_cap
    (integration continues, the values stay finite).
    """
    if not (x_start > x_end > 0):
        raise ValueError(f"require x_start > x_end > 0, got {x_start}, {x_end}")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    if form not in _FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {sorted(_FORMS)}")
    if coupling_power not in _POWERS:
        raise ValueError(
            f"unknown coupling_power {coupling_power!r}; expected one of {sorted(_POWERS)}"
        )
    if method not in ("adaptive", "fixed"):
        raise ValueError(f"unknown method {method!r}")
    if stiff_mode not in ("auto", "off"):
        raise ValueError(f"unknown stiff_mode {stiff_mode!r}")
    if k <= 0:
        raise ValueError(f"wavenumber must be > 0, got k={k}")

    if params is None:
        params = BackgroundParams()
    if init is None:
        r0, phi0 = DEFAULT_INIT_R, DEFAULT_INIT_PHI
    elif isinstance(init, SqueezeState):
        if not math.isclose(init.x, x_start, rel_tol=1e-12):
            raise ValueError(
                f"initial state stamped at x={init.x}, but integration starts at {x_start}"
            )
        r0, phi0 = init.r, init.phi
    else:
        r0, phi0 = float(init[0]), float(init[1])
    if r0 < 0:
        raise ValueError(f"initial squeeze amplitude must be >= 0, got {r0}")

    xs = _sample_grid(x_start, x_end, samples)
    form_code = _FORMS[form]
    power_code = _POWERS[coupling_power]
    mp = params.planck_mass

    fail_state: SqueezeState | None = None
    if method == "adaptive":
        (
            out_r, out_phi, n_filled, status, n_steps, n_rej,
            max_err, n_slaved, capped, clamped,
            fail_x, fail_r, fail_phi,
        ) = _eng._drive_adaptive(
            xs, r0, phi0, k, mp, power_code, form_code, mu2_rate,
            zero_coupling, rtol, atol, r_cap,
            stiff_mode == "auto", stiff_budget, max_steps,
        )
        if status != _eng.STATUS_OK and fail_x < xs[min(n_filled, len(xs)) - 1]:
            fail_state = SqueezeState(r=max(fail_r, 0.0), phi=fail_phi, x=fail_x)
        stats = IntegratorStats(
            method="adaptive",
            n_steps=int(n_steps),
            n_rejected=int(n_rej),
            max_error_estimate=float(max_err),
            n_slaved_steps=int(n_slaved),
            capped=bool(capped),
            clamped_negative=bool(clamped),
            status={0: "ok", 1: "step-underflow", 2: "max-steps"}[int(status)],
        )
    else:
        if h_fixed is None:
            h_fixed = (x_start - x_end) / 1024.0
        if h_fixed <= 0:
            raise ValueError(f"h_fixed must be > 0, got {h_fixed}")
        n_sub = np.maximum(
            1, np.ceil((xs[:-1] - xs[1:]) / h_fixed).astype(np.int64)
        )
        out_r, out_phi, n_steps, capped, clamped = _eng._drive_rk4(
            xs, n_sub, r0, phi0, k, mp, power_code, form_code,
            mu2_rate, zero_coupling, r_cap,
        )
        n_filled = len(xs)
        stats = IntegratorStats(
            method="fixed",
            n_steps=int(n_steps),
            capped=bool(capped),
            clamped_negative=bool(clamped),
        )

    states = tuple(
        SqueezeState(r=max(out_r[i], 0.0), phi=out_phi[i], x=xs[i])
        for i in range(n_filled)
    )
    if fail_state is not None:
        states = states + (fail_state,)
    traj = Trajectory(samples=states, k=k, form=form, integrator_stats=stats)

    if stats.status == "step-underflow":
        raise StepSizeUnderflowError(
            f"step size underflow at x={states[-1].x:.6g} (r={states[-1].r:.6g}); "
            "likely the r = 0 angle singularity",
            traj,
        )
    if stats.status == "max-steps":
        raise StepBudgetError(
            f"exceeded {max_steps} steps at x={states[-1].x:.6g}; the window is "
            "stiff -- use stiff_mode='auto' or shrink the span",
            traj,
        )
    if stats.capped:
        warnings.warn(
            f"squeeze amplitude exceeded cap {r_cap} for k={k}; trajectory kept",
            CappedGrowthWarning,
            stacklevel=2,
        )
    return traj


def evolve_grid(
    k_grid: Iterable[float],
    config: "SweepConfig",
    eval_point: str | None = None,
) -> list[ModeResult]:
    """Evaluate each mode of the grid at the configured evaluation point.

    eval_point overrides config.eval_point when given ("super-horizon" ->
    state at x_end, "horizon-crossing" -> state at x = 1).  Each mode is
    integrated from x_start to its evaluation point and no further, so the
    stats (steps, cap hits) cover exactly the evaluated stretch.  Integrator
    failures (StepSizeUnderflowError, StepBudgetError) are recorded in the
    result list without aborting the remaining modes; any other exception
    propagates.  Identical k entries produce bit-identical results (pure
    function).
    """
    ks = list(k_grid)
    if any(k <= 0 for k in ks):
        raise ValueError("k grid must be positive")
    if any(b < a for a, b in zip(ks, ks[1:])):
        raise ValueError("k grid must be ascending")

    where = eval_point if eval_point is not None else config.eval_point
    if where not in ("super-horizon", "horizon-crossing"):
        raise ValueError(f"unknown eval_point {where!r}")
    eval_x = config.x_end if where == "super-horizon" else 1.0

    params = BackgroundParams()
    results: list[ModeResult] = []
    for k_label in ks:
        k_int = k_label * config.unit_scale
        if config.zero_coupling:
            # debug shortcut: zero coupling freezes r' == 0 identically, and
            # the run pins r = 0 (exact vacuum; the angle is then unphysical
            # and kept at its seed)
            results.append(
                ModeResult(
                    k=k_label,
                    state=SqueezeState(r=0.0, phi=config.init_phi, x=eval_x),
                )
            )
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CappedGrowthWarning)
                traj = integrate(
                    k_int,
                    config.x_start,
                    eval_x,
                    init=(config.init_r, config.init_phi),
                    form=config.form,
                    params=params,
                    coupling_power=config.coupling_power,
                    rtol=config.rtol,
                    atol=config.atol,
                    samples=[config.x_start, eval_x],
                    mu2_rate=config.mu2_rate,
                    r_cap=config.r_cap,
                )
            results.append(
                ModeResult(
                    k=k_label,
                    state=traj.state_at(eval_x),
                    stats=traj.integrator_stats,
                )
            )
        except (StepSizeUnderflowError, StepBudgetError) as exc:
            results.append(ModeResult(k=k_label, state=None, error=str(exc)))
    return results

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
equation (coth r), so trajectories are seeded with a tiny positive r.  The
default initial angle pi/4 is the fixed point of the r equation (cos 2phi =
0), not of the angle equation: by default the adaptive driver starts the
angle on its attractor and takes the initial relaxation layer in closed
form.  See _integrators for the stiffness treatment of the coth(r)
relaxation.
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
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError(f"squeeze amplitude must be finite and >= 0, got r={self.r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"squeeze angle must be finite, got phi={self.phi}")
        if not (math.isfinite(self.x) and self.x > 0):
            raise ValueError(f"time stamp must be finite and > 0, got x={self.x}")

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
    if coupling_power not in _eng.COUPLING_POWERS:
        raise ValueError(f"unknown coupling_power {coupling_power!r}")
    mp = params.planck_mass
    return _eng._closed_coupling(cc.coupling, mp, coupling_power), cc.mu2, cc.mu2_rate, mp


def rhs_conformal(
    state: SqueezeState,
    k: float,
    params: BackgroundParams | None = None,
    couplings: CouplingCoefficients | None = None,
    coupling_power: str = "literal",
) -> tuple[float, float]:
    """(dr/deta, dphi/deta) of the conformal-form flow at the given state."""
    a_cc, mu2, mu2_rate, mp = _resolve_rhs_inputs(state, k, params, couplings, coupling_power)
    return _eng._rhs_eta(state.r, state.phi, a_cc, mu2, mu2_rate, mp, "conformal")


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
    return _eng._rhs_eta(state.r, state.phi, a_cc, mu2, mu2_rate, mp, "transformed")


def rhs_closed_reference(
    state: SqueezeState,
    k: float,
    params: BackgroundParams | None = None,
    couplings: CouplingCoefficients | None = None,
    coupling_power: str = "literal",
) -> tuple[float, float]:
    """(dr/deta, dphi/deta) of the analytic dissipation-free limit."""
    a_cc, _, _, mp = _resolve_rhs_inputs(state, k, params, couplings, coupling_power)
    return _eng._rhs_eta(state.r, state.phi, a_cc, 0.0, 0.0, mp, "closed-reference")


def _sample_grid(
    x_start: float,
    x_end: float,
    samples: int | Sequence[float] | None,
) -> list[float]:
    """Decreasing checkpoint grid: requested points plus x_start, x = 1
    (when inside the window) and x_end, as Python floats."""
    if samples is None:
        n = max(2, int(math.ceil(12 * math.log10(x_start / x_end))) + 1)
        pts = np.geomspace(x_start, x_end, n)
    elif isinstance(samples, int):
        pts = np.geomspace(x_start, x_end, max(2, samples))
    else:
        pts = np.asarray(samples, dtype=float)
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"samples must be finite, got {samples}")
        if pts.size and (pts.max() > x_start or pts.min() < x_end):
            raise ValueError("sample points must lie within [x_end, x_start]")
    extra = [x_start, x_end]
    if x_end < 1.0 < x_start:
        extra.append(1.0)
    return np.unique(np.concatenate([pts, np.array(extra)]))[::-1].tolist()


def integrate(
    k: float,
    x_start: float,
    x_end: float,
    init: tuple[float, float] | None = None,
    form: str = "conformal",
    *,
    params: BackgroundParams | None = None,
    coupling_power: str = "literal",
    rtol: float = 1e-10,
    atol: float = 1e-10,
    method: str = "adaptive",
    h_fixed: float | None = None,
    samples: int | Sequence[float] | None = None,
    r_cap: float = 30.0,
    stiff_mode: str = "auto",
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate the selected flow from x_start down to x_end for one mode.

    init is the (r, phi) seed at x_start (default: r = 1e-6, phi = pi/4);
    the first sample is always init as passed.  method="adaptive" is the
    embedded 5(4) pair with tolerance control (and the automatic
    stiff-window fast path unless stiff_mode="off"; its entry and exit rules
    are fixed in _integrators).  The fast path is entered at x_start or not
    at all, and once left it is not re-entered.  Where it is entered, the
    angle starts on its attractor: the initial relaxation layer from init
    phi is taken in closed form, and init phi only picks the copy of the
    branch (mod pi) nearest to it.  stiff_mode="off" steps
    through the layer.  method="fixed" is the classical RK4
    cross-validator with step h_fixed subdivided exactly into each
    checkpoint segment.  mu2 = k/M_P is constant along the trajectory,
    so mu2' = 0.  The coupling always follows the background (a sweep's
    zero_coupling debug run is answered by evolve_grid without integrating),
    and r is never clamped: a step that would take r below 0 or past
    ~354.9, where cosh 2r overflows, is rejected, so a mode that runs into
    either edge ends in a step-size underflow that names it.

    The numbers are validated, then converted once to Python floats (the
    checkpoints too), on which the engine runs.  Raises ValueError naming
    the argument for any non-finite number, and for an init r outside
    [0, ~354.9], where the seed itself would overflow;
    raises StepSizeUnderflowError / StepBudgetError with the partial
    trajectory attached; emits CappedGrowthWarning when r exceeds r_cap
    (integration continues, the values stay finite).
    """
    if init is None:
        init = (DEFAULT_INIT_R, DEFAULT_INIT_PHI)
    r0, phi0 = float(init[0]), float(init[1])
    numbers = {
        "k": k, "x_start": x_start, "x_end": x_end, "rtol": rtol, "atol": atol,
        "r_cap": r_cap, "h_fixed": h_fixed, "init r": r0, "init phi": phi0,
    }
    for name, value in numbers.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (x_start > x_end > 0):
        raise ValueError(f"require x_start > x_end > 0, got {x_start}, {x_end}")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    if form not in _eng.FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {sorted(_eng.FORMS)}")
    if coupling_power not in _eng.COUPLING_POWERS:
        raise ValueError(
            f"unknown coupling_power {coupling_power!r}; "
            f"expected one of {sorted(_eng.COUPLING_POWERS)}"
        )
    if method not in ("adaptive", "fixed"):
        raise ValueError(f"unknown method {method!r}")
    if stiff_mode not in ("auto", "off"):
        raise ValueError(f"unknown stiff_mode {stiff_mode!r}")
    if k <= 0:
        raise ValueError(f"wavenumber must be > 0, got k={k}")

    if not 0 <= r0 <= _eng._R_MAX:
        raise ValueError(f"init r must lie in [0, {_eng._R_MAX:.4f}], got {r0}")

    if params is None:
        params = BackgroundParams()
    xs = _sample_grid(x_start, x_end, samples)
    k, mp, rtol, atol = float(k), float(params.planck_mass), float(rtol), float(atol)

    if method == "adaptive":
        (
            out_r, out_phi, status, n_steps, n_rej, max_err, n_slaved, capped,
            x_stop, r_stop, phi_stop,
        ) = _eng._drive_adaptive(
            xs, r0, phi0, k, mp, coupling_power, form, rtol, atol, r_cap,
            stiff_mode == "auto", max_steps,
        )
        stats = IntegratorStats(
            method="adaptive",
            n_steps=n_steps,
            n_rejected=n_rej,
            max_error_estimate=max_err,
            n_slaved_steps=n_slaved,
            capped=capped,
            status=status,
        )
    else:
        if h_fixed is None:
            h_fixed = (x_start - x_end) / 1024.0
        if h_fixed <= 0:
            raise ValueError(f"h_fixed must be > 0, got {h_fixed}")
        n_sub = [max(1, math.ceil((a - b) / h_fixed)) for a, b in zip(xs, xs[1:])]
        out_r, out_phi, n_steps, capped = _eng._drive_rk4(
            xs, n_sub, r0, phi0, k, mp, coupling_power, form, r_cap,
        )
        x_stop = xs[-1]
        stats = IntegratorStats(method="fixed", n_steps=n_steps, capped=capped)

    states = tuple(
        SqueezeState(r=r, phi=phi, x=x) for x, r, phi in zip(xs, out_r, out_phi)
    )
    if x_stop < states[-1].x:  # a failed run that stopped between checkpoints
        states = states + (SqueezeState(r=r_stop, phi=phi_stop, x=x_stop),)
    traj = Trajectory(samples=states, k=k, form=form, integrator_stats=stats)

    if stats.status == "step-underflow":
        last = states[-1]
        if last.r > 0.5 * _eng._R_MAX:
            cause = (
                "r at the edge of the double range "
                f"(cosh 2r overflows past r = {_eng._R_MAX:.4f})"
            )
        else:
            cause = "likely the r = 0 angle singularity"
        raise StepSizeUnderflowError(
            f"step size underflow at x={last.x:.6g} (r={last.r:.6g}); {cause}", traj
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

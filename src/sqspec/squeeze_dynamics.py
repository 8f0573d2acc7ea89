"""Evolution of the squeezing amplitude r_k and rotation angle phi_k.

The flow in conformal time eta (prime = d/deta, all in Planck units) is

    r' = [ -A sinh(2r) cos(2 phi) - sinh(2r) mu2' ]
         / [ sinh(2r) + 2 mu2 cosh^2(r) ]                      (conformal form)

    phi' = -M_P mu2 + (1/2) sin(2 phi) [ A tanh(r)/(1 + mu2 tanh r)
                                         + M_P (coth r + mu2) ]

where A is the closed-coupling factor.  The code sets M_P = 1, so mu2 = k,
and each mode has one fixed comoving k, so mu2' = 0 here and its terms drop
out.  Two conventions are supported for A, since the coupling enters the
parent Hamiltonian as M_P sqrt|1 - mu1^2| = |z'/z| but the flow above
squares it:

    coupling_power="literal"                A = M_P |1 - mu1^2| = (z'/z)^2 / M_P
    coupling_power="hamiltonian-consistent" A = |z'/z|

The paper also prints r' in a transformed form,

    r' = - tanh(r) (mu2' + A cos 2 phi) / (tanh r + mu2),      (transformed form)

which is the same expression: sinh 2r / (sinh 2r + 2 mu2 cosh^2 r) ==
tanh r / (tanh r + mu2).  sqspec evaluates r' in the transformed form,
which needs no sinh or cosh and stays finite up to the r edge, where
A sinh 2r passes the double range; the tests check it against the
printed conformal expression.  _rhs._flow holds the flow, and the
adaptive driver's stages inline it (_rhs).  rhs evaluates it at a state;
its second form, "closed-reference", is the same flow at mu2 = 0 (the pure
two-mode-squeezed flow), used as a weak-dissipation oracle.  rhs and
integrate resolve the form to mu2 (k, or 0), and the engine reads only mu2.

Trajectories are sampled in the dimensionless variable x = -k eta (d/dx =
-(1/k) d/deta), from deep sub-horizon x_start >> 1 down through horizon
crossing x = 1 to x_end; the adaptive driver runs against -1/x.
r = 0 is a coordinate singularity of the angle equation (coth r), so
trajectories are seeded with a tiny positive r.  The default initial angle
pi/4 is the fixed point of the r equation (cos 2phi = 0), not of the angle
equation: where its fast path applies, the adaptive driver starts the angle
on its attractor and takes the initial relaxation layer in closed form.
See _integrators for the stiffness treatment of the coth(r) relaxation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _integrators as _eng
from ._integrators import IntegratorStats
from ._rhs import _flow
from .background import CouplingCoefficients, couplings as _bg_couplings
from .config import _R_MAX, COUPLING_POWERS, FORMS, SweepConfig, _geometric_nodes

__all__ = [
    "SqueezeState",
    "Trajectory",
    "ModeResult",
    "StepSizeUnderflowError",
    "StepBudgetError",
    "rhs",
    "integrate",
    "evolve_grid",
    "wrap_angle",
]

# RK4 steps a run of integrate() may ask for, which max_steps does not bound
_MAX_FIXED_STEPS = 10_000_000


class _IntegrationError(RuntimeError):
    """An integration that stopped short; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


class StepSizeUnderflowError(_IntegrationError):
    """Step size underflowed near a singularity; carries the partial trajectory."""


class StepBudgetError(_IntegrationError):
    """Step budget exhausted, typically by a stiff window stepped explicitly."""


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
class Trajectory:
    """One mode's squeeze evolution as the engine walked it: the checkpoints
    reached and, for a failed run that stopped between two, the stop point.
    x (strictly decreasing), r and phi are tuples of Python floats."""

    x: tuple[float, ...]
    r: tuple[float, ...]
    phi: tuple[float, ...]
    k: float
    integrator_stats: IntegratorStats

    def state_at(self, x: float) -> SqueezeState:
        """State recorded exactly at x (raises KeyError if x was not reached)."""
        try:
            i = self.x.index(x)
        except ValueError:
            raise KeyError(f"no sample recorded at x={x}") from None
        return SqueezeState(r=self.r[i], phi=self.phi[i], x=self.x[i])


@dataclass(frozen=True)
class ModeResult:
    """Outcome of one grid mode: evaluated state or an error message."""

    k: float
    state: SqueezeState | None
    error: str | None = None
    stats: IntegratorStats | None = None


def _check_flow(form: str, coupling_power: str) -> None:
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {sorted(FORMS)}")
    if coupling_power not in COUPLING_POWERS:
        raise ValueError(
            f"unknown coupling_power {coupling_power!r}; "
            f"expected one of {sorted(COUPLING_POWERS)}"
        )


def rhs(
    state: SqueezeState,
    k: float,
    couplings: CouplingCoefficients | None = None,
    coupling_power: str = "literal",
    form: str = "conformal",
) -> tuple[float, float]:
    """(dr/deta, dphi/deta) of the flow at the given state: the printed
    flow with mu2 from the couplings (form="conformal"), or with
    form="closed-reference" the same flow at mu2 = 0, its
    dissipation-free limit.  couplings default to the
    background's at eta = -x/k.  An angle whose 2 phi overflows gives NaN."""
    _check_flow(form, coupling_power)
    if couplings is None:
        if not 0 < k < math.inf:
            raise ValueError(f"wavenumber must be > 0 and finite, got k={k}")
        couplings = _bg_couplings(-state.x / k, k)
    mu2 = couplings.mu2 if form == "conformal" else 0.0
    return _flow(state.r, state.phi, couplings.coupling, mu2, coupling_power)


def _sample_grid(
    x_start: float,
    x_end: float,
    samples: int | Sequence[float] | None,
) -> list[float]:
    """Decreasing checkpoint grid as Python floats: the requested points (a
    geometric grid of that many points for an int, of 12 per decade for
    None) plus x_start, x = 1 (when inside the window) and x_end, exactly."""
    if samples is None:
        samples = int(math.ceil(12 * math.log10(x_start / x_end))) + 1
    if isinstance(samples, int):
        pts = _geometric_nodes(x_start, x_end, max(2, samples))
    else:
        pts = [float(v) for v in samples]
        if not all(map(math.isfinite, pts)):
            raise ValueError(f"samples must be finite, got {samples}")
        if pts and (max(pts) > x_start or min(pts) < x_end):
            raise ValueError("sample points must lie within [x_end, x_start]")
    pts += (x_start, x_end, 1.0) if x_end < 1.0 < x_start else (x_start, x_end)
    return sorted({float(v) for v in pts}, reverse=True)


def integrate(
    k: float,
    x_start: float,
    x_end: float,
    init: tuple[float, float] | None = None,
    form: str = "conformal",
    *,
    coupling_power: str = "literal",
    rtol: float = SweepConfig.rtol,
    atol: float = SweepConfig.atol,
    h_fixed: float | None = None,
    samples: int | Sequence[float] | None = None,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate the selected flow from x_start down to x_end for one mode.

    init is the (r, phi) seed at x_start; it, rtol and atol default to
    SweepConfig's init_r, init_phi, rtol and atol (r = 1e-6, phi = pi/4,
    1e-10 and 1e-10).  The first sample is always init as passed.
    h_fixed=None runs the embedded 5(4) pair with tolerance control and
    the stiff-window fast path, whose entry and exit rules are fixed in
    _integrators.  It runs against -1/x with its error norm on ln r, so
    rtol is relative in r at any size of r, and atol guards the angle only
    (atol + rtol |phi|).  The fast path is entered at x_start or not at
    all, and once left it is not re-entered.  On it the angle is held on its
    slow manifold, the attracting branch to second order in the relaxation
    rate, and w = r + mu2 ln sinh r is stepped in a form that is linear in
    -1/x there.  Where it is entered, the angle starts there: the initial
    relaxation layer from init phi is taken in closed form, with its
    first-order effect on ln r, and init phi only picks the copy of the
    branch (mod pi) nearest to it.  A window shorter than 8000 relaxation
    lengths is stepped through with the full system.  A given h_fixed runs the
    classical RK4 cross-validator in (r, phi) against x, with step h_fixed
    subdivided exactly into each checkpoint segment; rtol, atol and
    max_steps act on the adaptive pair only, so the RK4 run takes every step
    it needs.  mu2 is k for the conformal form and 0 for closed-reference,
    which is the printed flow at mu2 = 0; it is constant along the
    trajectory, so mu2' = 0.  The coupling always follows the
    background (a sweep's zero_coupling debug run is answered by evolve_grid
    without integrating), and r is never clamped: an adaptive step that would
    take r past ~354.9, where cosh 2r overflows, is rejected, so a mode that
    runs into that edge ends at once in a step-size underflow that names it,
    and so do a mode whose r falls into r = 0, the angle equation's
    singularity, and a seed there.

    The numbers are validated, then converted once to Python floats (the
    checkpoints too), on which the engine runs.  Raises ValueError naming
    the argument for any non-finite number, for an x_start whose x_start^2/k
    overflows, for an init r outside [0, ~354.9], where the seed itself
    would overflow, for an init phi past +-DBL_MAX/2, whose 2 phi overflows,
    for an h_fixed <= 0 or one that asks for more than 10^7 RK4 steps, for a
    max_steps that is not >= 0, and for a fixed step that is not finite or
    leaves that range of r (naming h_fixed, x and r);
    raises StepSizeUnderflowError / StepBudgetError with the partial
    trajectory attached.  r passing 30 only sets integrator_stats.capped.
    """
    if init is None:
        init = (SweepConfig.init_r, SweepConfig.init_phi)
    r0, phi0 = float(init[0]), float(init[1])
    numbers = {
        "k": k, "x_start": x_start, "x_end": x_end, "rtol": rtol, "atol": atol,
        "h_fixed": h_fixed, "init r": r0, "init phi": phi0,
    }
    for name, value in numbers.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not math.isfinite(2.0 * phi0):  # the flow reads the angle as 2 phi
        raise ValueError(f"init phi must lie within +-DBL_MAX/2, got {phi0}")
    if not (x_start > x_end > 0):
        raise ValueError(f"require x_start > x_end > 0, got {x_start}, {x_end}")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    if not max_steps >= 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    _check_flow(form, coupling_power)
    if h_fixed is not None and h_fixed <= 0:
        raise ValueError(f"h_fixed must be > 0, got {h_fixed}")
    if h_fixed is not None and not (x_start - x_end) / h_fixed <= _MAX_FIXED_STEPS:
        raise ValueError(
            f"h_fixed={h_fixed!r} asks for {(x_start - x_end) / h_fixed:.3g} RK4 steps "
            f"over x_start - x_end = {x_start - x_end:.6g}; the limit is {_MAX_FIXED_STEPS:.0e}"
        )
    if k <= 0:
        raise ValueError(f"wavenumber must be > 0, got k={k}")
    k, x_start, x_end = float(k), float(x_start), float(x_end)
    mu2 = k if form == "conformal" else 0.0  # closed-reference: the flow at mu2 = 0
    rtol, atol = float(rtol), float(atol)
    # the engine scales each stage by x^2/k, largest at x_start
    if not math.isfinite(x_start / k * x_start):
        raise ValueError(f"x_start^2/k must be finite, got x_start={x_start}, k={k}")

    if not 0 <= r0 <= _R_MAX:
        raise ValueError(f"init r must lie in [0, {_R_MAX:.4f}], got {r0}")

    xs = _sample_grid(x_start, x_end, samples)

    if h_fixed is None:
        out_x, out_r, out_phi, stats = _eng._drive_adaptive(
            xs, r0, phi0, k, coupling_power, mu2, rtol, atol, max_steps,
        )
    else:
        n_sub = [max(1, math.ceil((a - b) / h_fixed)) for a, b in zip(xs, xs[1:])]
        out_r, out_phi, stats, bad = _eng._drive_rk4(
            xs, n_sub, r0, phi0, k, coupling_power, mu2,
        )
        if bad is not None:
            x_bad, r_bad = bad
            raise ValueError(
                f"h_fixed={h_fixed:.6g} is too coarse: the RK4 step from x={x_bad:.6g} "
                f"(r={r_bad:.6g}) is not finite or leaves 0 <= r <= {_R_MAX:.4f}"
            )
        out_x = xs

    traj = Trajectory(
        x=tuple(out_x), r=tuple(out_r), phi=tuple(out_phi),
        k=k, integrator_stats=stats,
    )

    if stats.status == "step-underflow":
        x_last, r_last = out_x[-1], out_r[-1]
        if r0 == 0.0:
            cause = "the seed r = 0 is the angle singularity"
        elif r_last > 0.5 * _R_MAX:
            cause = (
                "r at the edge of the double range "
                f"(cosh 2r overflows past r = {_R_MAX:.4f})"
            )
        elif r_last < 0.5 * r0:
            cause = f"likely the r = 0 angle singularity (r fell from {r0:.6g})"
        else:
            cause = (
                "a stiff window too short for the fast path: "
                "the angle relaxes within the smallest step"
            )
        raise StepSizeUnderflowError(
            f"step size underflow at x={x_last:.6g} (r={r_last:.6g}); {cause}", traj
        )
    if stats.status == "max-steps":
        raise StepBudgetError(
            f"exceeded {max_steps} steps at x={out_x[-1]:.6g}; "
            "raise max_steps or shrink the span",
            traj,
        )
    return traj


def evolve_grid(
    k_grid: Iterable[float],
    config: "SweepConfig",
) -> list[ModeResult]:
    """Evaluate each mode of the grid at config.eval_point ("super-horizon"
    -> state at x_end, "horizon-crossing" -> state at x = 1).  Each mode is
    integrated from x_start to its evaluation point and no further, so the
    stats (steps, cap hits) cover exactly the evaluated stretch.  Integrator
    failures (StepSizeUnderflowError, StepBudgetError) are recorded in the
    result list, with the stats of the partial trajectory, without aborting
    the remaining modes; any other exception propagates.  Identical k
    entries produce bit-identical results (pure function).
    """
    ks = list(k_grid)
    if not all(0 < k < math.inf for k in ks):
        raise ValueError("k grid must be positive and finite")
    if any(b < a for a, b in zip(ks, ks[1:])):
        raise ValueError("k grid must be ascending")

    eval_x = config.x_end if config.eval_point == "super-horizon" else 1.0

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
            traj = integrate(
                k_int,
                config.x_start,
                eval_x,
                init=(config.init_r, config.init_phi),
                form=config.form,
                coupling_power=config.coupling_power,
                rtol=config.rtol,
                atol=config.atol,
                samples=[config.x_start, eval_x],
            )
            results.append(
                ModeResult(
                    k=k_label,
                    state=traj.state_at(eval_x),
                    stats=traj.integrator_stats,
                )
            )
        except _IntegrationError as exc:
            stats = exc.trajectory.integrator_stats
            results.append(ModeResult(k=k_label, state=None, error=str(exc), stats=stats))
    return results

"""Low-level ODE drivers for the squeeze-parameter flow.

Two engines, both explicit: an embedded Dormand-Prince 5(4) pair with
proportional step control (the adaptive integrator), and a classical
fixed-step fourth-order Runge-Kutta scheme used for cross-validation, which
integrate() runs when it is given a step h_fixed.  Both read the flow from
_rhs.

Both follow the dimensionless variable x = -k eta, which decreases from deep
sub-horizon (x >> 1) through horizon crossing (x = 1) to the super-horizon
evaluation point.  Each trajectory has one fixed comoving k, so mu2 is
constant and mu2' = 0: mu2 = k in Planck units (M_P = 1), or 0 for the
closed-reference form, the printed flow at mu2 = 0, which integrate()
resolves.  The RK4 driver steps
(r, phi) against x.  The adaptive driver runs against tau = -1/x, where
1/x = a/a_k is the scale factor in units of its value at horizon crossing;
tau decreases with x, so steps are negative in both.  It steps the full
system in (u, phi) = (ln r, phi), and on the slow manifold of the angle
(_rhs) a slaved regime in which the angle is held on phi~ and r alone is
stepped, with the same tableau; the first trial step runs from the seed to
the first checkpoint.  The error norm of u is rtol alone, which is relative
in r at any size of r, and atol guards the angle only (atol + rtol |phi|).

The slaved regime steps w = r + mu2 ln sinh r (w = r at mu2 = 0), for
which the printed r-equation is exactly dw/deta = -A' cos(2 phi).  On
the attractor cos(2 phi) ~ -1, so dw/dtau ~ -k for literal coupling and
e^w ~ |tau| for consistent coupling: a step (_slaved_step) advances omega =
w - w0 (literal) or e^(w - w0) - 1 (consistent), with w0 at the step's
base, which are linear in tau there, so the steps are long.  Each stage
gets u back from w by Newton (_u_at), from the previous stage's point.  The
error norm stays on u: the estimate in omega over d omega/du at the new
point, over rtol.  A first slaved step is trusted only where the spread of
its stage derivatives, |h| max|k_i - k_1| in u, is within rtol too: that
bounds the error of any quadrature of the step, where the embedded estimate
of a step far outside its asymptotic range does not (at consistent k =
0.314, one from x = 100 to 4.8 estimated 7e-11 against a true error of
1e-7).  A rejected first step shrinks by the square root of that spread.
Both regimes are first-same-as-last (FSAL).

The slaved regime is a prefix of the trajectory: it is entered at the seed
x = xs[0] or never, when the branch exists, the seed is off the repelling
branch cos(phi0 + phi*) = 0 (at mu2 = 0, phi0 = 0, where sin 2 phi = 0
holds the angle for good), and the rate B/k (per unit x) times the span
to the last checkpoint, the slack, exceeds twice _STIFF_BUDGET (4000
relaxation lengths).  rate * dx is invariant under the change of variable,
so these rules are evaluated in x.  The angle then
starts on phi~, and the initial layer from the seed angle (~2e-5 wide in x
at r ~ 1e-6) is taken in closed form, the reduced (Tikhonov) limit (Hairer &
Wanner, Solving ODEs II, Ch. VI): with its coefficients held fixed across
the layer and dr/deta = -A' cos(2 phi), it adds Delta ln r = -(2 A' /
(r0 B)) ln|cos(2 phi*) / cos(phi0 + phi*)| to u.  The term is first order
in Delta ln r; where it exceeds 1 in size, the seed takes no layer term.
A window shorter than 8000 relaxation lengths is stepped with the full
system.  The first sample keeps the caller's seed angle.

The slaved regime is left once, on accuracy, not on cost.  phi~ omits the
term delta3 of its series, which shifts dr/dx by a relative 2 s |delta3| / c
(_lag).  The regime is left where the slack is within _STIFF_BUDGET and
that term exceeds rtol, or _SLAVE_HANDBACK = 200 relaxation lengths before
the last checkpoint, so the full system re-forms the lag before the angle
is read (_leaves).  This is tested at the landing point of each slaved
step that its error estimate accepts; where it holds there, the point
where it first holds is found by bisection on the step's cubic Hermite
interpolant of omega, and the step is re-taken to land on it, like a
checkpoint.  A step that lands on the last checkpoint ends the run on the
fast path where delta3 there is within tolerance, rtol in dr/dx and
atol + rtol |phi| in the angle read off phi~; otherwise the regime is left
before it, as above.  Exit re-seeds the full system from phi~.

r is never clamped, and r = exp(u) > 0 holds by construction.  The
coordinate singularity r = 0 has no logarithm: a seed there ends at once in
a step-size underflow, before any evaluation.  An attempt whose new u passes
ln _R_MAX, where cosh 2r overflows (_R_MAX = ln(DBL_MAX)/2 ~ 354.9), whose
stages overflow, divide by zero or leave a math domain, or whose slaved
solve for u fails, is rejected like a non-finite stage.  The run ends in a
step-size underflow when it cannot advance: a rejected step shorter than 16
ulps of tau, a rejected attempt
from r within rtol of _R_MAX, or an r that falls into r = 0 (at mu2 = 0,
dr/deta is finite there) within 16 ulps of tau at its current rate.
A seed past _R_MAX is refused before the first evaluation.  The fixed-step
RK4 driver has no step to shrink: it stops at the first step that a
non-finite stage, an overflow or a pole spoils or that takes r outside
[0, _R_MAX], and integrate() raises a ValueError naming h_fixed.

The engine runs on Python floats, fills lists and imports no numpy: each
stage is a chain of scalar operations, and numpy scalar arithmetic about
doubles their cost, so integrate() converts its numbers once.  A float
divided by zero raises ZeroDivisionError where a numpy scalar gave inf, so a
stage that divides by zero is a rejected stage.  coupling_power is
dispatched on its name, one of config's COUPLING_POWERS, which
squeeze_dynamics checks it against.  config defines those and _R_MAX, since
the sweep configuration accepts and bounds the same values, and imports only
the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._rhs import _attractor_phi, _lag, _rhs_x, _slaved_stage, _stage, _u_at, _w_at
from .config import _R_MAX

# relaxation lengths of slack to the last checkpoint: the seed is put on the
# fast path above twice this, and below it the path may be left on its lag error
_STIFF_BUDGET = 4000.0
_LN_R_MAX = math.log(_R_MAX)
# relaxation lengths left to the last checkpoint when the fast path always
# hands back, so the full system re-forms the angle's lag before it is read
_SLAVE_HANDBACK = 200.0
# r past which a run is flagged in IntegratorStats.capped
_R_CAP = 30.0
# bisections of a slaved step for the point where the fast path is left
_LEAVE_BISECTIONS = 10


@dataclass(frozen=True)
class IntegratorStats:
    """Counters of one integration, built by the driver that counts them and
    kept on its Trajectory (a failed run's too) and on its ModeResult.

    n_steps: accepted steps, slaved ones included; RK4 steps for the
        fixed-step driver.
    n_rejected: rejected step attempts (0 for the fixed-step driver).
    n_slaved_steps: accepted steps on the fast path, with the angle held on
        its slow manifold.
    capped: r exceeded 30 (_R_CAP) somewhere along the run; the run goes
        on and its values stay finite.
    status: "ok"; "step-underflow", the step size underflowed (integrate
        raises StepSizeUnderflowError); or "max-steps", the step budget ran
        out (integrate raises StepBudgetError).
    """

    n_steps: int
    n_rejected: int = 0
    n_slaved_steps: int = 0
    capped: bool = False
    status: str = "ok"


# Dormand-Prince 5(4) tableau
_DP_C2, _DP_C3, _DP_C4, _DP_C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_DP_A21 = 1.0 / 5.0
_DP_A31, _DP_A32 = 3.0 / 40.0, 9.0 / 40.0
_DP_A41, _DP_A42, _DP_A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_DP_A51, _DP_A52, _DP_A53, _DP_A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_DP_A61, _DP_A62, _DP_A63, _DP_A64, _DP_A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_DP_B1, _DP_B3, _DP_B4, _DP_B5, _DP_B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
# b5 - b4 error weights (stage 7 = FSAL evaluation at the new point)
_DP_E1, _DP_E3, _DP_E4, _DP_E5, _DP_E6, _DP_E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def _leaves(tau, u, st, x_end, k, power, mu2, rtol):
    """Whether the fast path is left at (tau, u), where the slaved stage gave
    the tuple st: within _SLAVE_HANDBACK relaxation lengths of x_end, or
    within _STIFF_BUDGET where the omitted term shifts dr/dx by more than
    rtol (or is NaN)."""
    slack = st[3] / k * (-1.0 / tau - x_end)
    return slack <= _SLAVE_HANDBACK or (
        slack <= _STIFF_BUDGET and not _lag(tau, u, st, k, power, mu2)[0] <= rtol
    )


def _slaved_step(tau, h, u, w, dw, f1, k, power, mu2, first):
    """One Dormand-Prince attempt on the slow manifold from (tau, u), where
    w = w0 and dw/du = dw, stepping omega = w - w0 (literal coupling) or
    e^(w - w0) - 1 (consistent), both 0 at tau and linear in tau on the
    attractor; f1 = dw/dtau at tau.  Each stage gets u back by _u_at from
    the previous stage's point.  Returns (u, w, dw/du, stage) at tau + h,
    the error estimate and, on a first step, the spread |h| max|k_i - f1|
    of the stages (else 0), both in u, and (omega at tau + h, d omega/dtau
    at tau and at tau + h) for _leave_fraction; stage is _slaved_stage's
    tuple there."""
    expo = power != "literal"
    ui, wi, dwi, st = u, w, dw, None  # the last stage's, where the next solve starts

    def stage(c, om):  # d omega/dtau at tau + c h
        nonlocal ui, wi, dwi, st
        wt = w + (math.log1p(om) if expo else om)
        ut, dwt = _u_at(wt, ui, wi, dwi, mu2)
        if ut != ut:  # the solve failed: a NaN stage
            return math.nan
        ui, wi, dwi = ut, wt, dwt
        st = _slaved_stage(tau + c * h, ui, k, power, mu2)
        return st[0] * (1.0 + om) if expo else st[0]

    k2 = stage(_DP_C2, h * _DP_A21 * f1)
    k3 = stage(_DP_C3, h * (_DP_A31 * f1 + _DP_A32 * k2))
    k4 = stage(_DP_C4, h * (_DP_A41 * f1 + _DP_A42 * k2 + _DP_A43 * k3))
    k5 = stage(_DP_C5, h * (_DP_A51 * f1 + _DP_A52 * k2 + _DP_A53 * k3 + _DP_A54 * k4))
    k6 = stage(1.0, h * (_DP_A61 * f1 + _DP_A62 * k2 + _DP_A63 * k3 + _DP_A64 * k4 + _DP_A65 * k5))
    om = h * (_DP_B1 * f1 + _DP_B3 * k3 + _DP_B4 * k4 + _DP_B5 * k5 + _DP_B6 * k6)
    k7 = stage(1.0, om)  # FSAL; where it failed, k7 is NaN and so is the error
    dom = dwi * (1.0 + om) if expo else dwi  # d omega/du
    err = h * (_DP_E1 * f1 + _DP_E3 * k3 + _DP_E4 * k4 + _DP_E5 * k5 + _DP_E6 * k6 + _DP_E7 * k7) / dom
    spread = 0.0
    if first:
        spread = abs(h) * max(abs(k2 - f1), abs(k3 - f1), abs(k4 - f1), abs(k5 - f1), abs(k6 - f1), abs(k7 - f1)) / dom
    return ui, wi, dwi, st, err, spread, (om, f1, k7)


def _leave_fraction(tau, h, u, w, dw, omegas, x_end, k, power, mu2, rtol):
    """Where the fast path is first left in the accepted slaved attempt
    (tau, tau + h) whose end leaves it, as a fraction of h: bisection of
    _leaves on the cubic Hermite interpolant of omega (_slaved_step's
    omegas)."""
    om1, f0, f1 = omegas
    expo = power != "literal"
    lo, hi = 0.0, 1.0
    for _ in range(_LEAVE_BISECTIONS):
        t = 0.5 * (lo + hi)
        om = h * f0 * t * (1.0 - t) ** 2 + om1 * t * t * (3.0 - 2.0 * t) + h * f1 * t * t * (t - 1.0)
        tt = tau + t * h
        ut = _u_at(w + (math.log1p(om) if expo else om), u, w, dw, mu2)[0]
        if _leaves(tt, ut, _slaved_stage(tt, ut, k, power, mu2), x_end, k, power, mu2, rtol):
            hi = t
        else:
            lo = t
    return hi


def _drive_adaptive(xs, r0, phi0, k, power, mu2, rtol, atol, max_steps):
    """Advance (r, phi) through the decreasing checkpoints xs against
    tau = -1/x, stepping (ln r, phi) on the full system and w on the slow
    manifold, and landing on each checkpoint exactly.

    Returns (out_x, out_r, out_phi, stats): out_x, out_r and out_phi hold
    each checkpoint reached and, when integration stopped between two, the
    state where it stopped; stats is the run's IntegratorStats, with status
    "ok", "step-underflow" or "max-steps".
    """
    x = xs[0]
    out_x = [x]
    out_r = [r0]
    out_phi = [phi0]
    x_end = xs[-1]
    if r0 == 0.0:  # the singularity itself: u = ln r has no seed
        return out_x, out_r, out_phi, IntegratorStats(0, status="step-underflow")
    tau = -1.0 / x
    u = math.log(r0)
    phi = phi0

    status = "ok"
    n_steps = 0
    n_rejected = 0
    n_slaved = 0
    capped = False

    h = -1.0 / x_end - tau  # negative: tau decreases with x

    # the seed is the only way onto the slaved branch (module docstring)
    fw, s2p, _, bracket, s, _, _ = _slaved_stage(tau, u, k, power, mu2)
    rate = bracket / k
    slaved = math.isfinite(rate) and rate * (x - x_end) > 2.0 * _STIFF_BUDGET and 0.0 <= s < 0.99
    if slaved:
        # cos(phi0 + phi*) from half angles is exactly 0 on the repelling
        # branch, from which the angle does not relax (at mu2 = 0 it keeps
        # phi0 = 0 for good): that seed is stepped on the full system
        c = math.sqrt(1.0 - s * s)
        cos_sum = math.cos(phi0) * math.sqrt(0.5 * (1.0 - c)) - math.sin(phi0) * math.sqrt(0.5 * (1.0 + c))
        slaved = cos_sum != 0.0
    if slaved:
        w, dw = _w_at(u, mu2)
        # the layer term with A' c / r0 = du/deta = -k tau^2 du/dtau
        layer = 2.0 * fw / dw * k * tau * tau * math.log(c / abs(cos_sum)) / (c * bracket)
        phi = _attractor_phi(s2p, phi)
        if abs(layer) <= 1.0:  # a first-order term: beyond |Delta ln r| = 1, none
            u += layer
            fw = _slaved_stage(tau, u, k, power, mu2)[0]
            w, dw = _w_at(u, mu2)
        first = True  # no slaved step accepted yet
        tau_leave = None  # where the fast path is left, once found
    else:
        fu, fp = _stage(tau, u, phi, k, power, mu2)

    for x_target in xs[1:]:
        tau_target = -1.0 / x_target
        while tau > tau_target:
            if n_steps + n_rejected > max_steps:
                status = "max-steps"
                break

            land = leave = False
            if h <= tau_target - tau:
                h = tau_target - tau
                land = True
            if slaved and tau_leave is not None and h <= tau_leave - tau:
                h = tau_leave - tau
                land = tau_leave == tau_target
                leave = True
            h_next = None

            try:
                if slaved:  # the angle is held on phi~, so w alone is stepped
                    u_new, w_new, dw_new, st, err, spread, omegas = _slaved_step(
                        tau, h, u, w, dw, fw, k, power, mu2, first
                    )
                    err = abs(err) / rtol
                    spread /= rtol
                    # a first step's estimate is trusted only where the spread of its
                    # stages, a first-order bound of its error, is within tolerance
                    # too; it grows at least as h^2, so the retry shrinks by its root
                    if spread > max(err, 1.0):
                        err = spread
                        h_next = h * 0.9 / math.sqrt(spread)
                    p_new = phi
                else:
                    k1u, k1p = fu, fp
                    u2 = u + h * _DP_A21 * k1u
                    q2 = phi + h * _DP_A21 * k1p
                    k2u, k2p = _stage(tau + _DP_C2 * h, u2, q2, k, power, mu2)
                    u3 = u + h * (_DP_A31 * k1u + _DP_A32 * k2u)
                    q3 = phi + h * (_DP_A31 * k1p + _DP_A32 * k2p)
                    k3u, k3p = _stage(tau + _DP_C3 * h, u3, q3, k, power, mu2)
                    u4 = u + h * (_DP_A41 * k1u + _DP_A42 * k2u + _DP_A43 * k3u)
                    q4 = phi + h * (_DP_A41 * k1p + _DP_A42 * k2p + _DP_A43 * k3p)
                    k4u, k4p = _stage(tau + _DP_C4 * h, u4, q4, k, power, mu2)
                    u5 = u + h * (_DP_A51 * k1u + _DP_A52 * k2u + _DP_A53 * k3u + _DP_A54 * k4u)
                    q5 = phi + h * (_DP_A51 * k1p + _DP_A52 * k2p + _DP_A53 * k3p + _DP_A54 * k4p)
                    k5u, k5p = _stage(tau + _DP_C5 * h, u5, q5, k, power, mu2)
                    u6 = u + h * (_DP_A61 * k1u + _DP_A62 * k2u + _DP_A63 * k3u + _DP_A64 * k4u + _DP_A65 * k5u)
                    q6 = phi + h * (_DP_A61 * k1p + _DP_A62 * k2p + _DP_A63 * k3p + _DP_A64 * k4p + _DP_A65 * k5p)
                    k6u, k6p = _stage(tau + h, u6, q6, k, power, mu2)
                    u_new = u + h * (_DP_B1 * k1u + _DP_B3 * k3u + _DP_B4 * k4u + _DP_B5 * k5u + _DP_B6 * k6u)
                    p_new = phi + h * (_DP_B1 * k1p + _DP_B3 * k3p + _DP_B4 * k4p + _DP_B5 * k5p + _DP_B6 * k6p)
                    k7u, k7p = _stage(tau + h, u_new, p_new, k, power, mu2)
                    # rtol on u = ln r is relative in r; atol guards the angle only
                    err_u = h * (_DP_E1 * k1u + _DP_E3 * k3u + _DP_E4 * k4u + _DP_E5 * k5u + _DP_E6 * k6u + _DP_E7 * k7u) / rtol
                    err_p = h * (_DP_E1 * k1p + _DP_E3 * k3p + _DP_E4 * k4p + _DP_E5 * k5p + _DP_E6 * k6p + _DP_E7 * k7p)
                    sp = atol + rtol * max(abs(phi), abs(p_new))
                    err = math.sqrt(0.5 * (err_u * err_u + (err_p / sp) ** 2))
                if not u_new <= _LN_R_MAX:  # cosh 2r would overflow
                    err = math.nan
                tau_new, x_new = (tau_target, x_target) if land else (tau + h, -1.0 / (tau + h))
                # a step that leaves x unchanged (a sub-ulp landing) stays where its base did
                if slaved and err <= 1.0 and not leave and x_new != x:
                    # leave on the omitted term or near the last checkpoint; on it,
                    # end on the fast path where phi~ holds the angle to tolerance
                    if land and x_target == x_end:
                        lag_r, lag_phi = _lag(tau_new, u_new, st, k, power, mu2)
                        leave = not (lag_r <= rtol and lag_phi <= atol + rtol * abs(phi))
                    else:
                        leave = _leaves(tau_new, u_new, st, x_end, k, power, mu2, rtol)
                    if leave:
                        t = _leave_fraction(tau, h, u, w, dw, omegas, x_end, k, power, mu2, rtol)
                        tau_leave = tau + t * h
                        if tau_new < tau_leave < tau:  # re-take the step to land there
                            h_next = tau_leave - tau
                            err = math.inf
            except (OverflowError, ZeroDivisionError, ValueError):  # beyond the double range, or a pole
                err = math.nan
            accepted = err <= 1.0
            if accepted:
                tau, x = tau_new, x_new  # checkpoints are landed exactly in x
                u = u_new
                phi = p_new
                n_steps += 1
                if math.exp(u) > _R_CAP:
                    capped = True
                if slaved:
                    n_slaved += 1
                    first = False
                    w, dw, fw = w_new, dw_new, st[0]  # FSAL
                    phi = _attractor_phi(st[1], phi)
                    if leave:  # hand the angle phi~ to the full system
                        slaved = False
                        fu, fp = _stage(tau, u, phi, k, power, mu2)
                else:
                    fu, fp = k7u, k7p  # FSAL
            else:
                n_rejected += 1

            # proportional controller on the scalar error
            if h_next is not None:
                h = h_next
            else:
                if err == 0.0:
                    factor = 10.0
                elif math.isnan(err):  # a bad stage or u out of range: shrink as hard as allowed
                    factor = 0.2
                else:
                    factor = min(10.0, max(0.2, 0.9 * err ** -0.2))
                h = h * factor
            # the integrator cannot advance: r falls into 0 within 16 ulps of tau at its
            # rate, or a rejected step is shorter than that or starts within rtol of _R_MAX
            floor = 16.0 * math.ulp(tau)
            if (not slaved and fu * floor > 1.0) if accepted else (-h < floor or u >= _LN_R_MAX - rtol):
                status = "step-underflow"
                break
        if status == "ok" or x < out_x[-1]:  # or a failed run stopped between two
            # a run that is ok sits at tau_target, also where a checkpoint
            # shares the previous one's tau and took no step
            out_x.append(x_target if status == "ok" else x)
            out_r.append(math.exp(u))
            out_phi.append(phi)
        if status != "ok":
            break

    return out_x, out_r, out_phi, IntegratorStats(n_steps, n_rejected, n_slaved, capped, status)


def _drive_rk4(xs, n_sub, r0, phi0, k, power, mu2):
    """Classical RK4 with n_sub[i] equal steps on segment xs[i] -> xs[i+1].

    Plain full-system stepping, no stiffness bypass; meant for
    cross-validating the adaptive driver on well-conditioned windows.  It
    stops at the first step the adaptive driver would reject: a non-finite
    stage, an overflow or a pole, or a new r outside [0, _R_MAX].
    Returns (out_r, out_phi, stats, bad): stats is the run's IntegratorStats
    (status "ok": this driver has no typed failure), and bad is None, or,
    when it stopped early, the (x, r) the bad step started from.
    """
    out_r = [r0]
    out_phi = [phi0]
    r = r0
    phi = phi0
    n_steps = 0
    capped = False
    bad = None

    for x0, x1, n in zip(xs, xs[1:], n_sub):
        h = (x1 - x0) / n
        x = x0
        for _ in range(n):
            try:
                k1r, k1p = _rhs_x(x, r, phi, k, power, mu2)
                k2r, k2p = _rhs_x(x + 0.5 * h, r + 0.5 * h * k1r, phi + 0.5 * h * k1p, k, power, mu2)
                k3r, k3p = _rhs_x(x + 0.5 * h, r + 0.5 * h * k2r, phi + 0.5 * h * k2p, k, power, mu2)
                k4r, k4p = _rhs_x(x + h, r + h * k3r, phi + h * k3p, k, power, mu2)
                r_new = r + h * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0
                p_new = phi + h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
            except (OverflowError, ZeroDivisionError):
                r_new = p_new = math.nan
            # a non-finite stage reaches r_new or p_new
            if not (0.0 <= r_new <= _R_MAX and math.isfinite(p_new)):
                bad = (x, r)
                break
            r = r_new
            phi = p_new
            x += h
            n_steps += 1
            if r > _R_CAP:
                capped = True
        if bad is not None:
            break
        out_r.append(r)
        out_phi.append(phi)

    return out_r, out_phi, IntegratorStats(n_steps, capped=capped), bad

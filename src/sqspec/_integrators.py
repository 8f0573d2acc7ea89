"""Low-level ODE drivers for the squeeze-parameter flow.

Two engines, both explicit: an embedded Dormand-Prince 5(4) pair with
proportional step control (the adaptive integrator), and a classical
fixed-step fourth-order Runge-Kutta scheme used for cross-validation, which
integrate() runs when it is given a step h_fixed.

Both follow the dimensionless variable x = -k eta, which decreases from deep
sub-horizon (x >> 1) through horizon crossing (x = 1) to the super-horizon
evaluation point.  Each trajectory has one fixed comoving k, so in Planck
units (M_P = 1) mu2 = k is constant and mu2' = 0.  The RK4 driver steps
(r, phi) against x.  The adaptive driver steps (u, phi) = (ln r, phi)
against tau = -1/x, where 1/x = a/a_k is the scale factor in units of its
value at horizon crossing; tau decreases with x, so steps are negative in
both.  On the attractor d ln r/dtau = -k/(r + k) (the Lambert-W form in
perfbench/oracle.py), so ln r is linear in tau while r << k and the steps
are long; the first trial step runs from the seed to the first checkpoint.
The error norm of u is rtol alone, which is relative in r at any size of r,
and atol guards the angle only (atol + rtol |phi|).

_flow holds the printed flow in conformal time, each formula once: the
closed-coupling factor A, the coth r Laurent series, the bracket B of the
angle equation, dr/deta in the printed conformal form, and the closed form
(the analytic mu2 = 0 limit) of the closed-reference oracle.  _stage turns
it into (du/dtau, dphi/dtau) of the full system; the RK4 driver's _rhs_x
and the public rhs in squeeze_dynamics read the same copy.
_slaved_stage inlines it for the slaved regime below, so a slaved stage is
one Python call.

Stiffness handling.  The angle equation carries a coth(r) relaxation rate:
for r ~ 1e-6 the angle is attracted to its quasi-static branch

    sin(2 phi*) = s = 2 mu2 / B,   cos(2 phi*) = -c = -sqrt(1 - s^2)

about 1e6/k times faster than any other scale, which an explicit method
resolves only with ~coth(r)/k steps per unit x.  The adaptive driver
therefore has a slaved regime: the angle is held on the slow manifold
phi~ = phi* + delta1 + delta2 and u alone is stepped, with the same tableau
and an error norm on u only (Kokotovic, Khalil & O'Reilly, Singular
Perturbation Methods in Control, 1999, ch. 1-2).  With the relaxation rate
nu = B c / k per unit x, delta1 = (dphi*/dx) / nu, where dphi*/dx =
s (dB/dx) / (2 B c) and _slaved_stage forms dB/dx in closed form (A ~ x^-p
at fixed r, p = 2 literal and 1 consistent, plus dB/dr times the
zeroth-order dr/dx), and delta2 = (d delta1/dx) / nu, where d delta1/dx is
the difference of delta1 between consecutive accepted slaved points, held
through the next step.  The stage reads dr/deta at cos(2 phi~) =
-c cos(2 delta) - s sin(2 delta) and returns sin(2 phi~), from which
_attractor_phi forms the accepted angle.  The closed form has s = 0, so
delta = 0.  A slaved stage off the branch (s outside [0, 0.99)) is NaN and is
rejected.  Both regimes are first-same-as-last (FSAL).

The slaved regime is a prefix of the trajectory: it is entered at the seed
x = xs[0] or never, when the branch exists, the seed is off the repelling
branch cos(phi0 + phi*) = 0 (the closed form from phi0 = 0, where sin 2 phi
= 0 holds the angle for good), and the rate B/k (per unit x) times the span
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
next term of the series, ~(d^2 delta1/dx^2) / nu^2, which shifts dr/dx by a
relative 2 s |d^2 delta1/dx^2| / (rate^2 c^3); it is tested after each
accepted slaved step, with the difference of the held d delta1/dx.  The
regime is left once the slack is within _STIFF_BUDGET and that term exceeds
rtol, or in any case _SLAVE_HANDBACK = 200 relaxation lengths before the
last checkpoint, so the full system re-forms the lag before the angle is
read.  Exit re-seeds the full system from phi~; the last landing is no exit.

r is never clamped, and r = exp(u) > 0 holds by construction.  The
coordinate singularity r = 0 has no logarithm: a seed there ends at once in
a step-size underflow, before any evaluation.  An attempt whose new u passes
ln _R_MAX, where cosh 2r overflows (_R_MAX = ln(DBL_MAX)/2 ~ 354.9), or whose
stages overflow, divide by zero or leave a math domain, is rejected like a
non-finite stage.  The run ends in a step-size underflow when it cannot
advance: a rejected step shorter than 16 ulps of tau, a rejected attempt
from r within rtol of _R_MAX, or an r that falls into r = 0 (the closed
form's dr/deta is finite there) within 16 ulps of tau at its current rate.
A seed past _R_MAX is refused before the first evaluation.  The fixed-step
RK4 driver has no step to shrink: it stops at the first step that a
non-finite stage, an overflow or a pole spoils or that takes r outside
[0, _R_MAX], and integrate() raises a ValueError naming h_fixed.

The engine runs on Python floats, fills lists and imports no numpy: each
stage is a chain of scalar operations, and numpy scalar arithmetic about
doubles their cost, so integrate() converts its numbers once.  A float
divided by zero raises ZeroDivisionError where a numpy scalar gave inf, so a
stage that divides by zero is a rejected stage.  form and coupling_power are
dispatched on their names, config's FORMS and COUPLING_POWERS, which
squeeze_dynamics checks them against.  config defines those and _R_MAX, since
the sweep configuration accepts and bounds the same values, and imports only
the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class IntegratorStats:
    """Counters of one integration, built by the driver that counts them and
    kept on its Trajectory (a failed run's too) and on its ModeResult.

    method: "adaptive" or "fixed".
    n_steps: accepted steps, slaved ones included; RK4 steps for "fixed".
    n_rejected: rejected step attempts (0 for "fixed").
    max_error_estimate: the largest scaled error of an accepted step, in
        units of the tolerance, so at most 1 (0 for "fixed").
    n_slaved_steps: accepted steps on the fast path, with the angle held on
        its slow manifold.
    capped: r exceeded 30 (_R_CAP) somewhere along the run; the run goes
        on and its values stay finite.
    status: "ok"; "step-underflow", the step size underflowed (integrate
        raises StepSizeUnderflowError); or "max-steps", the step budget ran
        out (integrate raises StepBudgetError).
    """

    method: str
    n_steps: int
    n_rejected: int = 0
    max_error_estimate: float = 0.0
    n_slaved_steps: int = 0
    capped: bool = False
    status: str = "ok"


def _flow(r, phi, lam, mu2, power, form):
    """(dr/deta, dphi/deta) of the printed flow at (r, phi) for |z'/z| = lam.
    A non-finite angle (a stage driven through the r = 0 singularity) or one
    whose 2 phi overflows gives NaN, which the step controller rejects."""
    a_cc = lam * lam if power == "literal" else lam  # the closed-coupling factor
    tr = math.tanh(r)
    # Laurent form keeps coth(r)*sin(2 phi) accurate for tiny |r| (odd in r,
    # so it also serves the RK4 driver's transient negative stage values).
    # r = 0 is the genuine coordinate singularity of the angle equation.
    if r == 0.0:
        coth = math.inf
    elif abs(r) < 1e-4:
        coth = 1.0 / r + r / 3.0 + r * r * r / 45.0
    else:
        coth = 1.0 / tr
    two_phi = 2.0 * phi
    if not math.isfinite(two_phi):
        return math.nan, math.nan
    c2p = math.cos(two_phi)
    if form == "closed-reference":  # the analytic mu2 = 0 limit, finite at r = 0
        return -a_cc * c2p, 0.5 * math.sin(two_phi) * (a_cc * tr + coth)
    # the bracket B of the angle equation; coth r + mu2 is summed first, as in
    # the printed M_P (coth r + mu2)
    bracket = a_cc * tr / (1.0 + mu2 * tr) + (coth + mu2)
    dpdeta = 0.5 * math.sin(two_phi) * bracket - mu2
    s2r = math.sinh(2.0 * r)
    ch = math.cosh(r)
    den = s2r + 2.0 * mu2 * (ch * ch)
    if den == 0.0:  # r = 0 with mu2 = 0: the 0/0 limit is the closed form
        return -a_cc * c2p, dpdeta
    return -a_cc * s2r * c2p / den, dpdeta


def _stage(tau, u, phi, k, power, form):
    """(du/dtau, dphi/dtau) of the full system at tau = -1/x, u = ln r.
    |z'/z| = 1/|eta| = k/x = -k tau, and d/dtau = x^2 d/dx = -(x^2/k) d/deta
    with x^2 = 1/tau^2."""
    r = math.exp(u)
    drdeta, dpdeta = _flow(r, phi, -k * tau, k, power, form)
    scale = -1.0 / (k * tau * tau)
    return scale * drdeta / r, scale * dpdeta


def _slaved_stage(tau, u, k, power, form, dlag):
    """(du/dtau, sin 2phi~, delta1, B, s) with the angle on the slow manifold
    phi~ (module docstring), for the held d delta1/dx = dlag; s = 0 for the
    closed form.  Off the branch (s outside [0, 0.99), too marginal to hold
    the angle) du/dtau is NaN, which the controller rejects."""
    r = math.exp(u)
    lam = -k * tau  # |z'/z| = k/x
    literal = power == "literal"
    a_cc = lam * lam if literal else lam
    tr = math.tanh(r)
    coth = 1.0 / r + r / 3.0 + r * r * r / 45.0 if r < 1e-4 else 1.0 / tr  # as in _flow
    scale = -1.0 / (k * tau * tau)
    if form == "closed-reference":  # s = 0, so delta = 0 and cos(2 phi~) = -1
        return scale * a_cc / r, 0.0, 0.0, a_cc * tr + coth, 0.0
    den1 = 1.0 + k * tr
    bracket = a_cc * tr / den1 + (coth + k)
    s = 2.0 * k / bracket
    if not 0.0 <= s < 0.99:
        return math.nan, s, 0.0, bracket, s
    c = math.sqrt(1.0 - s * s)  # -cos(2 phi*)
    s2r = math.sinh(2.0 * r)
    ch = math.cosh(r)
    g = a_cc * s2r / (s2r + 2.0 * k * (ch * ch))  # dr/deta = -g cos(2 phi)
    # dB/dx / B^2, so that csch^2 r ~ 1/r^2 cannot overflow: a_cc ~ x^-p at
    # fixed r, plus dB/dr times the zeroth-order dr/dx = -g c / k
    ib = 1.0 / bracket
    q = coth * ib
    dbdx = (
        (-2.0 if literal else -1.0) * a_cc * tr * -tau / den1 * ib * ib
        - (a_cc * (1.0 - tr * tr) / (den1 * den1) * ib * ib - (q * q - ib * ib)) * g * c / k
    )
    # delta1 = (dphi*/dx) / nu and delta2 = dlag / nu with nu = B c / k
    d1 = 0.5 * s * k * dbdx / (c * c)
    delta = d1 + dlag * k * ib / c
    c2d = math.cos(2.0 * delta)
    s2d = math.sin(2.0 * delta)
    return scale * g * (c * c2d + s * s2d) / r, s * c2d - c * s2d, d1, bracket, s


def _rhs_x(x, r, phi, k, power, form):
    """(dr/dx, dphi/dx) of the full system, for the RK4 driver."""
    drdeta, dpdeta = _flow(r, phi, k / x, k, power, form)
    return -drdeta / k, -dpdeta / k


def _attractor_phi(s, phi_anchor):
    """The attractor angle with sin(2 phi*) = s, on the copy (mod pi) nearest
    phi_anchor; the attracting branch has cos(2 phi*) = -sqrt(1 - s^2)."""
    base = 0.5 * (math.pi - math.asin(s))
    return base + round((phi_anchor - base) / math.pi) * math.pi


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


def _drive_adaptive(xs, r0, phi0, k, power, form, rtol, atol, max_steps):
    """Advance (r, phi) through the decreasing checkpoints xs, stepping
    (ln r, phi) against tau = -1/x and landing on each checkpoint exactly.

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
        return out_x, out_r, out_phi, IntegratorStats("adaptive", 0, status="step-underflow")
    tau = -1.0 / x
    u = math.log(r0)
    phi = phi0

    status = "ok"
    n_steps = 0
    n_rejected = 0
    n_slaved = 0
    max_err = 0.0
    capped = False

    h = -1.0 / x_end - tau  # negative: tau decreases with x

    # the seed is the only way onto the slaved branch (module docstring)
    dlag = d2 = 0.0  # d delta1/dx and its derivative, held between accepted points
    fu, s2p, d1, bracket, s = _slaved_stage(tau, u, k, power, form, dlag)
    rate = bracket / k
    slaved = math.isfinite(rate) and rate * (x - x_end) > 2.0 * _STIFF_BUDGET and 0.0 <= s < 0.99
    if slaved:
        # cos(phi0 + phi*) from half angles is exactly 0 on the repelling
        # branch, from which the angle does not relax (the closed form keeps
        # phi0 = 0 for good): that seed is stepped on the full system
        c = math.sqrt(1.0 - s * s)
        cos_sum = math.cos(phi0) * math.sqrt(0.5 * (1.0 - c)) - math.sin(phi0) * math.sqrt(0.5 * (1.0 + c))
        slaved = cos_sum != 0.0
    if slaved:
        # the layer term with A' c / r0 = du/deta = -k tau^2 du/dtau
        layer = 2.0 * fu * k * tau * tau * math.log(c / abs(cos_sum)) / (c * bracket)
        phi = _attractor_phi(s2p, phi)
        fp, x_prev, d1_prev = 0.0, x, d1
        if abs(layer) <= 1.0:  # a first-order term: beyond |Delta ln r| = 1, none
            u += layer
            fu = _slaved_stage(tau, u, k, power, form, dlag)[0]
    else:
        fu, fp = _stage(tau, u, phi, k, power, form)

    for x_target in xs[1:]:
        tau_target = -1.0 / x_target
        while tau > tau_target:
            if n_steps + n_rejected > max_steps:
                status = "max-steps"
                break

            land = False
            if h <= tau_target - tau:
                h = tau_target - tau
                land = True

            k1u, k1p = fu, fp
            try:
                if slaved:  # the angle is held on phi~, so u alone is stepped
                    k2u = _slaved_stage(tau + _DP_C2 * h, u + h * _DP_A21 * k1u, k, power, form, dlag)[0]
                    u3 = u + h * (_DP_A31 * k1u + _DP_A32 * k2u)
                    k3u = _slaved_stage(tau + _DP_C3 * h, u3, k, power, form, dlag)[0]
                    u4 = u + h * (_DP_A41 * k1u + _DP_A42 * k2u + _DP_A43 * k3u)
                    k4u = _slaved_stage(tau + _DP_C4 * h, u4, k, power, form, dlag)[0]
                    u5 = u + h * (_DP_A51 * k1u + _DP_A52 * k2u + _DP_A53 * k3u + _DP_A54 * k4u)
                    k5u = _slaved_stage(tau + _DP_C5 * h, u5, k, power, form, dlag)[0]
                    u6 = u + h * (_DP_A61 * k1u + _DP_A62 * k2u + _DP_A63 * k3u + _DP_A64 * k4u + _DP_A65 * k5u)
                    k6u = _slaved_stage(tau + h, u6, k, power, form, dlag)[0]
                    u_new = u + h * (_DP_B1 * k1u + _DP_B3 * k3u + _DP_B4 * k4u + _DP_B5 * k5u + _DP_B6 * k6u)
                    k7u, s2p, d1, bracket, s = _slaved_stage(tau + h, u_new, k, power, form, dlag)
                    p_new, k7p = phi, 0.0
                else:
                    u2 = u + h * _DP_A21 * k1u
                    q2 = phi + h * _DP_A21 * k1p
                    k2u, k2p = _stage(tau + _DP_C2 * h, u2, q2, k, power, form)
                    u3 = u + h * (_DP_A31 * k1u + _DP_A32 * k2u)
                    q3 = phi + h * (_DP_A31 * k1p + _DP_A32 * k2p)
                    k3u, k3p = _stage(tau + _DP_C3 * h, u3, q3, k, power, form)
                    u4 = u + h * (_DP_A41 * k1u + _DP_A42 * k2u + _DP_A43 * k3u)
                    q4 = phi + h * (_DP_A41 * k1p + _DP_A42 * k2p + _DP_A43 * k3p)
                    k4u, k4p = _stage(tau + _DP_C4 * h, u4, q4, k, power, form)
                    u5 = u + h * (_DP_A51 * k1u + _DP_A52 * k2u + _DP_A53 * k3u + _DP_A54 * k4u)
                    q5 = phi + h * (_DP_A51 * k1p + _DP_A52 * k2p + _DP_A53 * k3p + _DP_A54 * k4p)
                    k5u, k5p = _stage(tau + _DP_C5 * h, u5, q5, k, power, form)
                    u6 = u + h * (_DP_A61 * k1u + _DP_A62 * k2u + _DP_A63 * k3u + _DP_A64 * k4u + _DP_A65 * k5u)
                    q6 = phi + h * (_DP_A61 * k1p + _DP_A62 * k2p + _DP_A63 * k3p + _DP_A64 * k4p + _DP_A65 * k5p)
                    k6u, k6p = _stage(tau + h, u6, q6, k, power, form)
                    u_new = u + h * (_DP_B1 * k1u + _DP_B3 * k3u + _DP_B4 * k4u + _DP_B5 * k5u + _DP_B6 * k6u)
                    p_new = phi + h * (_DP_B1 * k1p + _DP_B3 * k3p + _DP_B4 * k4p + _DP_B5 * k5p + _DP_B6 * k6p)
                    k7u, k7p = _stage(tau + h, u_new, p_new, k, power, form)
                # rtol on u = ln r is relative in r; atol guards the angle only
                err_u = h * (_DP_E1 * k1u + _DP_E3 * k3u + _DP_E4 * k4u + _DP_E5 * k5u + _DP_E6 * k6u + _DP_E7 * k7u) / rtol
                if slaved:  # the angle is held, so u alone carries the error
                    err = abs(err_u)
                else:
                    err_p = h * (_DP_E1 * k1p + _DP_E3 * k3p + _DP_E4 * k4p + _DP_E5 * k5p + _DP_E6 * k6p + _DP_E7 * k7p)
                    sp = atol + rtol * max(abs(phi), abs(p_new))
                    err = math.sqrt(0.5 * (err_u * err_u + (err_p / sp) ** 2))
                if not u_new <= _LN_R_MAX:  # cosh 2r would overflow
                    err = math.nan
            except (OverflowError, ZeroDivisionError, ValueError):  # beyond the double range, or a pole
                err = math.nan
            accepted = err <= 1.0
            if accepted:
                tau_step = tau + h
                if land:  # checkpoints are landed exactly in x
                    tau, x = tau_target, x_target
                else:
                    tau, x = tau_step, -1.0 / tau_step
                u = u_new
                phi = p_new
                fu, fp = k7u, k7p  # FSAL
                n_steps += 1
                if err > max_err:
                    max_err = err
                if math.exp(u) > _R_CAP:
                    capped = True
                if slaved:
                    n_slaved += 1
                    # stage 7 ran on phi~ here, so its B, s and delta1 hold there
                    rate = bracket / k
                    phi = _attractor_phi(s2p, phi)
                    if x != x_prev:  # a sub-ulp step can leave x unchanged
                        slope = (d1 - d1_prev) / (x - x_prev)
                        d2 = (slope - dlag) / (x - x_prev)
                        dlag, x_prev, d1_prev = slope, x, d1
                    # leave for good on the next-order term or near (not at) the last checkpoint
                    slack = rate * (x - x_end)
                    lagging = slack <= _STIFF_BUDGET and 2.0 * s * abs(d2) > rtol * rate * rate * (1.0 - s * s) ** 1.5
                    if (lagging or slack <= _SLAVE_HANDBACK) and x != x_end:
                        slaved = False
                        fu, fp = _stage(tau, u, phi, k, power, form)
            else:
                n_rejected += 1

            # proportional controller on the scalar error
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
            if (fu * floor > 1.0) if accepted else (-h < floor or u >= _LN_R_MAX - rtol):
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

    return out_x, out_r, out_phi, IntegratorStats("adaptive", n_steps, n_rejected, max_err, n_slaved, capped, status)


def _drive_rk4(xs, n_sub, r0, phi0, k, power, form):
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
                k1r, k1p = _rhs_x(x, r, phi, k, power, form)
                k2r, k2p = _rhs_x(x + 0.5 * h, r + 0.5 * h * k1r, phi + 0.5 * h * k1p, k, power, form)
                k3r, k3p = _rhs_x(x + 0.5 * h, r + 0.5 * h * k2r, phi + 0.5 * h * k2p, k, power, form)
                k4r, k4p = _rhs_x(x + h, r + h * k3r, phi + h * k3p, k, power, form)
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

    return out_r, out_phi, IntegratorStats("fixed", n_steps, capped=capped), bad

"""Low-level ODE drivers for the squeeze-parameter flow.

Two engines, both explicit:

  * an embedded Dormand-Prince 5(4) pair with proportional step control
    (the adaptive integrator), and
  * a classical fixed-step fourth-order Runge-Kutta scheme used for
    cross-validation.

Both follow the dimensionless variable x = -k eta, which decreases from deep
sub-horizon (x >> 1) through horizon crossing (x = 1) to the super-horizon
evaluation point.  Each trajectory has one fixed comoving k, so in Planck
units (M_P = 1) mu2 = k is constant and mu2' = 0.  The RK4 driver steps
(r, phi) against x.  The adaptive driver steps (u, phi) = (ln r, phi)
against tau = -1/x, where 1/x = a/a_k is the scale factor in units of its
value at horizon crossing; tau decreases with x, so steps are negative in
both.  On the attractor d ln r/dtau = -k/(r + k) (the Lambert-W form in
perfbench/oracle.py), so ln r is linear in tau while r << k and the steps
are long.  The error norm of u is rtol alone, which is relative in r at any
size of r, and atol guards the angle only (atol + rtol |phi|).  The default
200-mode sweep at x = 1 takes 1,280 step attempts and 0.054 s (2-core Xeon,
Python 3.11), and its r lands within 6.7e-12 of the closed form.

_flow holds the printed flow in conformal time, each formula once: the
closed-coupling factor, the coth r Laurent series, the bracket B of the angle
equation, s = sin(2 phi*) = 2 mu2 / B of its attractor and dr/deta of each
form.  _stage, the adaptive driver's stage, turns it into (du/dtau,
dphi/dtau) in one call, so a stage is two Python calls; the RK4 driver's
_rhs_x and the public rhs_* functions in squeeze_dynamics read the same
copy.

Stiffness handling.  The rotation-angle equation carries a coth(r) relaxation
rate: for r ~ 1e-6 the angle is attracted to its quasi-static fixed point
about 1e6/k times faster than any other scale in the problem.  Resolving that
with an explicit method costs ~coth(r)/k steps per unit x, which is
astronomically many exactly in the regime the pipeline must sweep.  The
attraction is so strong that the angle deviates from the fixed-point branch

    sin(2 phi*) = 2 mu2 / [A tanh(r)/(1 + mu2 tanh r) + coth r + mu2]
    cos(2 phi*) = -sqrt(1 - sin^2(2 phi*))        (the attracting branch)

by less than one part in 1e12 once locked.  The adaptive driver therefore
has an adiabatic (slaved) regime: the angle is held on the branch (dphi/dtau
= 0) and u alone is advanced.  Both regimes run the same Dormand-Prince stage
sequence, first-same-as-last (FSAL) in both: the derivative at the end of an
accepted step seeds the next one, and it is re-seeded only when the slaved
regime is left.  In the slaved regime each stage takes dr/deta from s; a
stage off the branch (s outside [0, 0.99)) is NaN and is rejected.  The error
norm covers u only, and the angle is formed at the seed and after an
accepted step, from the B and s that stage 7 returned there.

The slaved regime is a prefix of the trajectory: it is entered at the seed
x = xs[0] or never, when the branch exists and the relaxation rate B/k (per
unit x) times the span to the last checkpoint, the slack, exceeds twice
_STIFF_BUDGET (4000 relaxation lengths).  rate * dx is invariant under the
change of variable, so these rules are evaluated in x.  The angle then
starts on its attractor, so the initial relaxation layer from the seed angle
(~2e-5 wide in x at r ~ 1e-6) is taken in closed form: the reduced
(Tikhonov) limit of a singularly perturbed system (Hairer & Wanner, Solving
ODEs II, Ch. VI).  A window shorter than 8000 relaxation lengths is stepped
through with the full system.  The first sample keeps the caller's seed
angle.

The slaved regime is left once, on accuracy, not on cost.  The true angle
lags phi* by (d ln rate/dx)/rate^2, so holding it on the branch shifts dr/dx
by a relative s^2 |d ln rate/dx| / rate (= 4 |d ln rate/dx| / rate^3, as
s = 2/rate for mu2 = k; zero for the closed form).  After each accepted
slaved step this test is made with stage 7's rate, and d ln rate/dx is a
difference between consecutive accepted points.  The regime is left once the
slack is within _STIFF_BUDGET and that error exceeds rtol, or in any case
_SLAVE_HANDBACK = 200 relaxation lengths before the last checkpoint, so the
full system re-forms the lag before the angle is read.  Exit re-seeds the
full system from the branch, which is continuous.

r is never clamped, and r = exp(u) > 0 holds by construction.  The
coordinate singularity r = 0 has no logarithm: a seed there ends at once in
a step-size underflow, before any evaluation.  An attempt whose new u passes
ln _R_MAX, where cosh 2r overflows (_R_MAX = ln(DBL_MAX)/2 ~ 354.9), or whose
stages overflow or divide by zero, is rejected like a non-finite stage, so a
mode that runs into that edge ends in a step-size underflow there: a
rejected step shorter than 16 ulps of tau.  A seed past _R_MAX is refused
before the first evaluation.  The fixed-step RK4 driver has no step to
shrink: it stops at the first step that a non-finite stage, an overflow or a
pole spoils or that takes r outside [0, _R_MAX], and integrate() raises a
ValueError naming h_fixed.

The engine runs on Python floats, fills lists and imports nothing, numpy
included: each stage is a chain of scalar operations, and numpy scalar
arithmetic about doubles their cost, so integrate() converts its numbers
once.  A float divided by zero raises ZeroDivisionError where a numpy scalar
gave inf, so a stage that divides by zero is a rejected stage.  form and
coupling_power are dispatched on their names, FORMS and COUPLING_POWERS,
which are also what the sweep configuration accepts.
"""

from __future__ import annotations

import math
import sys

FORMS = ("conformal", "transformed", "closed-reference")
COUPLING_POWERS = ("literal", "hamiltonian-consistent")

# relaxation lengths of slack to the last checkpoint: the seed is put on the
# fast path above twice this, and below it the path may be left on its lag error
_STIFF_BUDGET = 4000.0
_R_MAX = 0.5 * math.log(sys.float_info.max)  # largest r with a finite cosh(2r)
_LN_R_MAX = math.log(_R_MAX)
# relaxation lengths left to the last checkpoint when the fast path always
# hands back, so the full system re-forms the angle's lag before it is read
_SLAVE_HANDBACK = 200.0


def _flow(r, phi, lam, mu2, power, form, slaved=False):
    """(dr/deta, dphi/deta, B, s) of the printed flow at (r, phi) for
    |z'/z| = lam: B is the bracket multiplying sin(2 phi)/2 in dphi/deta (the
    relaxation scale) and s = sin(2 phi*) = 2 mu2 / B of the attractor (0 for
    the closed form, whose bracket carries no mu2).

    slaved=True holds the angle on the attracting branch: dr/deta takes
    cos(2 phi*) = -sqrt(1 - s^2), phi is not read and dphi/deta is 0.  The
    attractor exists where 0 <= s < 0.99 (nearer s = 1 it is too marginal to
    hold the angle); a slaved stage off it, or a non-finite angle (a stage
    driven through the r = 0 singularity), gives NaN, which the step
    controller rejects.
    """
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
    closed = form == "closed-reference"
    if closed:
        bracket = a_cc * tr + coth
        s = 0.0
    else:
        # coth r + mu2 is summed first, as in the printed M_P (coth r + mu2)
        bracket = a_cc * tr / (1.0 + mu2 * tr) + (coth + mu2)
        s = 2.0 * mu2 / bracket
    if slaved:
        if not 0.0 <= s < 0.99:
            return math.nan, 0.0, bracket, s
        c2p = -math.sqrt(1.0 - s * s)
        dpdeta = 0.0
    elif math.isfinite(phi):
        c2p = math.cos(2.0 * phi)
        dpdeta = 0.5 * math.sin(2.0 * phi) * bracket
        if not closed:
            dpdeta -= mu2
    else:
        return math.nan, math.nan, bracket, s
    if form == "conformal":
        s2r = math.sinh(2.0 * r)
        ch = math.cosh(r)
        den = s2r + 2.0 * mu2 * (ch * ch)
        if den != 0.0:
            return -a_cc * s2r * c2p / den, dpdeta, bracket, s
    elif not closed:
        den = tr + mu2
        if den != 0.0:
            return -tr * (a_cc * c2p) / den, dpdeta, bracket, s
    # the closed form (the analytic mu2 = 0 limit, finite at r = 0), which is
    # also the 0/0 limit of the printed ratios at r = 0 with mu2 = 0
    return -a_cc * c2p, dpdeta, bracket, s


def _stage(tau, u, phi, k, power, form, slaved=False):
    """(du/dtau, dphi/dtau, B, s) at tau = -1/x, u = ln r: the adaptive
    driver's stage.  |z'/z| = 1/|eta| = k/x = -k tau, and d/dtau = x^2 d/dx
    = -(x^2/k) d/deta with x^2 = 1/tau^2."""
    r = math.exp(u)
    drdeta, dpdeta, bracket, s = _flow(r, phi, -k * tau, k, power, form, slaved)
    scale = -1.0 / (k * tau * tau)
    return scale * drdeta / r, scale * dpdeta, bracket, s


def _rhs_x(x, r, phi, k, power, form):
    """(dr/dx, dphi/dx) of the full system, for the RK4 driver."""
    drdeta, dpdeta, _, _ = _flow(r, phi, k / x, k, power, form)
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


def _drive_adaptive(xs, r0, phi0, k, power, form, rtol, atol, r_cap, max_steps):
    """Advance (r, phi) through the decreasing checkpoints xs, stepping
    (ln r, phi) against tau = -1/x and landing on each checkpoint exactly.

    Returns (out_r, out_phi, status, n_steps, n_rejected, max_err, n_slaved,
    capped, x, r, phi): out_r and out_phi hold one value per completed
    checkpoint, status is "ok", "step-underflow" or "max-steps", and (x, r,
    phi) is the true state where integration stopped.
    """
    out_r = [r0]
    out_phi = [phi0]
    x = xs[0]
    x_end = xs[-1]
    if r0 == 0.0:  # the singularity itself: u = ln r has no seed
        return out_r, out_phi, "step-underflow", 0, 0, 0.0, 0, False, x, r0, phi0
    tau = -1.0 / x
    u = math.log(r0)
    phi = phi0

    status = "ok"
    n_steps = 0
    n_rejected = 0
    n_slaved = 0
    max_err = 0.0
    capped = False

    h = (-1.0 / x_end - tau) * 1e-4  # negative: tau decreases with x

    # the seed is the only way onto the slaved branch (module docstring)
    _, _, bracket, s = _flow(r0, phi, k / x, k, power, form)
    rate = bracket / k
    slaved = math.isfinite(rate) and rate * (x - x_end) > 2.0 * _STIFF_BUDGET and 0.0 <= s < 0.99
    if slaved:
        phi = _attractor_phi(s, phi)
        x_prev = x
        ln_rate_prev = math.log(rate)
        dlnrate = 0.0
    fu, fp, _, _ = _stage(tau, u, phi, k, power, form, slaved)

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
                u2 = u + h * _DP_A21 * k1u
                q2 = phi + h * _DP_A21 * k1p
                k2u, k2p, _, _ = _stage(tau + _DP_C2 * h, u2, q2, k, power, form, slaved)
                u3 = u + h * (_DP_A31 * k1u + _DP_A32 * k2u)
                q3 = phi + h * (_DP_A31 * k1p + _DP_A32 * k2p)
                k3u, k3p, _, _ = _stage(tau + _DP_C3 * h, u3, q3, k, power, form, slaved)
                u4 = u + h * (_DP_A41 * k1u + _DP_A42 * k2u + _DP_A43 * k3u)
                q4 = phi + h * (_DP_A41 * k1p + _DP_A42 * k2p + _DP_A43 * k3p)
                k4u, k4p, _, _ = _stage(tau + _DP_C4 * h, u4, q4, k, power, form, slaved)
                u5 = u + h * (_DP_A51 * k1u + _DP_A52 * k2u + _DP_A53 * k3u + _DP_A54 * k4u)
                q5 = phi + h * (_DP_A51 * k1p + _DP_A52 * k2p + _DP_A53 * k3p + _DP_A54 * k4p)
                k5u, k5p, _, _ = _stage(tau + _DP_C5 * h, u5, q5, k, power, form, slaved)
                u6 = u + h * (_DP_A61 * k1u + _DP_A62 * k2u + _DP_A63 * k3u + _DP_A64 * k4u + _DP_A65 * k5u)
                q6 = phi + h * (_DP_A61 * k1p + _DP_A62 * k2p + _DP_A63 * k3p + _DP_A64 * k4p + _DP_A65 * k5p)
                k6u, k6p, _, _ = _stage(tau + h, u6, q6, k, power, form, slaved)
                u_new = u + h * (_DP_B1 * k1u + _DP_B3 * k3u + _DP_B4 * k4u + _DP_B5 * k5u + _DP_B6 * k6u)
                p_new = phi + h * (_DP_B1 * k1p + _DP_B3 * k3p + _DP_B4 * k4p + _DP_B5 * k5p + _DP_B6 * k6p)
                k7u, k7p, bracket, s = _stage(tau + h, u_new, p_new, k, power, form, slaved)
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
            except (OverflowError, ZeroDivisionError):  # beyond the double range, or a pole
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
                if math.exp(u) > r_cap:
                    capped = True
                if slaved:
                    n_slaved += 1
                    # stage 7 ran on the branch here, so its B and s hold there
                    rate = bracket / k
                    phi = _attractor_phi(s, phi)
                    # leave for good on the lag error or near the last checkpoint
                    slack = rate * (x - x_end)
                    ln_rate = math.log(rate)
                    if x != x_prev:  # a sub-ulp step can leave x unchanged
                        dlnrate = (ln_rate - ln_rate_prev) / (x - x_prev)
                        x_prev = x
                        ln_rate_prev = ln_rate
                    lagging = slack <= _STIFF_BUDGET and s * s * abs(dlnrate) > rtol * rate
                    if lagging or slack <= _SLAVE_HANDBACK:
                        slaved = False
                        fu, fp, _, _ = _stage(tau, u, phi, k, power, form, False)
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
            # a rejected step that still demands fewer than 16 ulps of tau
            # means the integrator cannot advance
            if (not accepted) and -h < 16.0 * math.ulp(tau):
                status = "step-underflow"
                break
        if status != "ok":
            break
        out_r.append(math.exp(u))
        out_phi.append(phi)

    return out_r, out_phi, status, n_steps, n_rejected, max_err, n_slaved, capped, x, math.exp(u), phi


def _drive_rk4(xs, n_sub, r0, phi0, k, power, form, r_cap):
    """Classical RK4 with n_sub[i] equal steps on segment xs[i] -> xs[i+1].

    Plain full-system stepping, no stiffness bypass; meant for
    cross-validating the adaptive driver on well-conditioned windows.  It
    stops at the first step the adaptive driver would reject: a non-finite
    stage, an overflow or a pole, or a new r outside [0, _R_MAX].
    Returns (out_r, out_phi, ok, n_steps, capped, x, r): ok is False when it
    stopped early, and then (x, r) is the state the bad step started from.
    """
    out_r = [r0]
    out_phi = [phi0]
    r = r0
    phi = phi0
    n_steps = 0
    capped = False
    ok = True

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
                ok = False
                break
            r = r_new
            phi = p_new
            x += h
            n_steps += 1
            if r > r_cap:
                capped = True
        if not ok:
            break
        out_r.append(r)
        out_phi.append(phi)

    return out_r, out_phi, ok, n_steps, capped, x, r

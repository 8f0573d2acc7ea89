"""Low-level ODE drivers for the squeeze-parameter flow.

Two engines, both explicit:

  * an embedded Dormand-Prince 5(4) pair with proportional step control
    (the adaptive integrator), and
  * a classical fixed-step fourth-order Runge-Kutta scheme used for
    cross-validation.

The flow is integrated in the dimensionless variable x = -k eta, which
decreases from deep sub-horizon (x >> 1) through horizon crossing (x = 1)
to the super-horizon evaluation point, so steps are negative in x.  Each
trajectory has one fixed comoving k, so in Planck units (M_P = 1) mu2 = k
is constant and mu2' = 0.

Stiffness handling.  The rotation-angle equation carries a coth(r) relaxation
rate: for r ~ 1e-6 the angle is attracted to its quasi-static fixed point
about 1e6/k times faster than any other scale in the problem.  Resolving that
with an explicit method costs ~coth(r)/k steps per unit x, which is
astronomically many exactly in the regime the pipeline must sweep.  The
attraction is so strong that the angle deviates from the fixed-point branch

    sin(2 phi*) = 2 mu2 / [A tanh(r)/(1 + mu2 tanh r) + coth r + mu2]
    cos(2 phi*) = -sqrt(1 - sin^2(2 phi*))        (the attracting branch)

by less than one part in 1e12 once locked.  The adaptive driver therefore
has an adiabatic (slaved) regime: the angle is held on the branch (dphi/dx =
0) and r alone is advanced.  Both regimes run the same Dormand-Prince stage
sequence, first-same-as-last (FSAL) in both: the derivative at the end of an
accepted step seeds the next one, and it is re-seeded only when the slaved
regime is left.  _branch is the one place that forms the couplings, the
bracket B, the rate B/k and s = sin(2 phi*).  In the slaved regime each stage
takes dr/dx from s; a stage off the branch (s outside [0, 0.99)) is NaN and
is rejected.  The error norm covers r only, and the angle is formed at the
seed and after an accepted step.

The slaved regime is a prefix of the trajectory: it is entered at the seed
x = xs[0] or never, when the relaxation rate is finite, the branch exists and
the rate times the span to the last checkpoint, the slack, exceeds twice
_STIFF_BUDGET (4000 relaxation lengths).  The angle then starts on its
attractor, so the initial relaxation layer from the seed angle (~2e-5 wide in
x at r ~ 1e-6) is taken in closed form: the reduced (Tikhonov) limit of a
singularly perturbed system (Hairer & Wanner, Solving ODEs II, Ch. VI).
r = 0 has an infinite rate and is not seeded, nor is a window shorter than
8000 relaxation lengths; those are stepped through with the full system.
The first sample keeps the caller's seed angle.

The slaved regime is left once, on accuracy, not on cost.  The true angle
lags phi* by (d ln rate/dx)/rate^2, so holding it on the branch shifts dr/dx
by a relative s^2 |d ln rate/dx| / rate (= 4 |d ln rate/dx| / rate^3, as
s = 2/rate for mu2 = k; zero for the closed form).  After each accepted
slaved step, _branch is evaluated once where stage 7 ran, for phi* and this
test, with d ln rate/dx a difference between consecutive accepted points.
The regime is left once the slack is within _STIFF_BUDGET and that error
exceeds rtol, or in any case _SLAVE_HANDBACK = 200 relaxation lengths before
the last checkpoint, so the full system re-forms the lag before the angle is
read.  Exit re-seeds the full system from the branch, which is continuous.

r is never clamped.  An attempt whose new r leaves [0, _R_MAX], or whose
stages overflow or divide by zero, is rejected like a non-finite stage.
Below 0 lies the coordinate singularity r = 0, which the closed form's finite
dr/deta would step through; past _R_MAX = ln(DBL_MAX)/2 ~ 354.9, cosh 2r
overflows.  A mode that runs into either edge ends in a step-size underflow
there, and a seed past _R_MAX is refused before the first evaluation.  The
fixed-step RK4 driver has no step to shrink: it stops at the first step the
adaptive driver would reject, and integrate() raises a ValueError naming
h_fixed.

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
# relaxation lengths left to the last checkpoint when the fast path always
# hands back, so the full system re-forms the angle's lag before it is read
_SLAVE_HANDBACK = 200.0


def _coth(r):
    # Laurent form keeps coth(r)*sin(2 phi) accurate for tiny |r| (odd in r,
    # so it also serves transient negative stage values).  r = 0 is the
    # genuine coordinate singularity of the angle equation: return inf and
    # let the step controller reject the step.
    if r == 0.0:
        return math.inf
    if abs(r) < 1e-4:
        return 1.0 / r + r / 3.0 + r * r * r / 45.0
    return math.cosh(r) / math.sinh(r)


def _drdeta(r, c2p, a_cc, mu2, form):
    """dr/deta of the selected form, given cos(2 phi)."""
    if form == "closed-reference":
        # analytic mu2 = 0 limit; finite at r = 0
        return -a_cc * c2p
    if form == "conformal":
        s2r = math.sinh(2.0 * r)
        ch2 = math.cosh(r) ** 2
        den = s2r + 2.0 * mu2 * ch2
        if den == 0.0:
            # r = 0 with mu2 = 0: take the 0/0 limit of the printed ratio
            return -a_cc * c2p
        return -a_cc * s2r * c2p / den
    tr = math.tanh(r)
    den = tr + mu2
    if den == 0.0:
        return -a_cc * c2p
    return -tr * (a_cc * c2p) / den


def _rhs_eta(r, phi, a_cc, mu2, form):
    """Conformal-time derivatives (dr/deta, dphi/deta) of the printed flow.

    a_cc is the closed-coupling factor: |1 - mu1^2| in literal mode,
    |z'/z| in hamiltonian-consistent mode (resolved by the caller).  A
    non-finite angle (a stage driven through the r = 0 singularity) gives
    NaN derivatives, which the step controller rejects.
    """
    if not math.isfinite(phi):
        return math.nan, math.nan
    drdeta = _drdeta(r, math.cos(2.0 * phi), a_cc, mu2, form)
    dpdeta = 0.5 * math.sin(2.0 * phi) * _phase_bracket(r, a_cc, mu2, form)
    if form != "closed-reference":
        dpdeta -= mu2
    return drdeta, dpdeta


def _closed_coupling(lam, power):
    """Closed-coupling factor a_cc of the flow for |z'/z| = lam."""
    if power == "literal":
        return lam * lam
    return lam


def _couplings_x(x, k, power):
    """(a_cc, mu2) at x = -k eta on the constant-eps background."""
    return _closed_coupling(k / x, power), k  # |z'/z| = 1/|eta|


def _phase_bracket(r, a_cc, mu2, form):
    """Bracket B multiplying sin(2 phi)/2 in dphi/deta (the relaxation scale)."""
    tr = math.tanh(r)
    if form == "closed-reference":
        return a_cc * tr + _coth(r)
    # coth r + mu2 is summed first, as in the printed M_P (coth r + mu2)
    return a_cc * tr / (1.0 + mu2 * tr) + (_coth(r) + mu2)


def _branch(x, r, k, power, form):
    """(a_cc, mu2, rate, s) at (x, r): the couplings, the angle's relaxation
    rate B/k and s = sin(2 phi*) = 2 mu2 / B of its attractor (0 for the
    closed form, whose bracket carries no mu2).  The attractor exists where
    0 <= s < 0.99; nearer s = 1 it is too marginal to hold the angle."""
    a_cc, mu2 = _couplings_x(x, k, power)
    bracket = _phase_bracket(r, a_cc, mu2, form)
    s = 0.0 if form == "closed-reference" else 2.0 * mu2 / bracket
    return a_cc, mu2, bracket / k, s


def _attractor_phi(s, phi_anchor):
    """The attractor angle with sin(2 phi*) = s, on the copy (mod pi) nearest
    phi_anchor; the attracting branch has cos(2 phi*) = -sqrt(1 - s^2)."""
    base = 0.5 * (math.pi - math.asin(s))
    return base + round((phi_anchor - base) / math.pi) * math.pi


def _rhs_x(x, r, phi, k, power, form, slaved=False):
    """(dr/dx, dphi/dx); x = -k eta so d/dx = -(1/k) d/deta.

    slaved=True holds the angle on the attractor branch: dr/dx takes
    cos(2 phi*) from _branch, so phi is not read, and dphi/dx is 0.  A slaved
    stage off the branch gives NaN, which the step controller rejects.
    """
    if slaved:
        a_cc, mu2, _, s = _branch(x, r, k, power, form)
        if not 0.0 <= s < 0.99:
            return math.nan, 0.0
        return -_drdeta(r, -math.sqrt(1.0 - s * s), a_cc, mu2, form) / k, 0.0
    a_cc, mu2 = _couplings_x(x, k, power)
    drdeta, dpdeta = _rhs_eta(r, phi, a_cc, mu2, form)
    return -drdeta / k, -dpdeta / k


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
    """Advance (r, phi) through the decreasing checkpoints xs.

    Returns (out_r, out_phi, status, n_steps, n_rejected, max_err, n_slaved,
    capped, x, r, phi): out_r and out_phi hold one value per completed
    checkpoint, status is "ok", "step-underflow" or "max-steps", and (x, r,
    phi) is the true state where integration stopped.
    """
    out_r = [r0]
    out_phi = [phi0]
    x = xs[0]
    x_end = xs[-1]
    r = r0
    phi = phi0

    status = "ok"
    n_steps = 0
    n_rejected = 0
    n_slaved = 0
    max_err = 0.0
    capped = False

    h = -(xs[0] - x_end) * 1e-4  # negative: x decreases
    if h == 0.0:
        h = -1e-8

    # the seed is the only way onto the slaved branch (module docstring)
    _, _, rate, s = _branch(x, r, k, power, form)
    slaved = math.isfinite(rate) and rate * (x - x_end) > 2.0 * _STIFF_BUDGET and 0.0 <= s < 0.99
    if slaved:
        phi = _attractor_phi(s, phi)
        x_prev = x
        ln_rate_prev = math.log(rate)
        dlnrate = 0.0
    fr, fp = _rhs_x(x, r, phi, k, power, form, slaved)

    for x_target in xs[1:]:
        while x > x_target:
            if n_steps + n_rejected > max_steps:
                status = "max-steps"
                break

            land = False
            if h <= x_target - x:
                h = x_target - x
                land = True

            k1r, k1p = fr, fp
            try:
                r2 = r + h * _DP_A21 * k1r
                q2 = phi + h * _DP_A21 * k1p
                k2r, k2p = _rhs_x(x + _DP_C2 * h, r2, q2, k, power, form, slaved)
                r3 = r + h * (_DP_A31 * k1r + _DP_A32 * k2r)
                q3 = phi + h * (_DP_A31 * k1p + _DP_A32 * k2p)
                k3r, k3p = _rhs_x(x + _DP_C3 * h, r3, q3, k, power, form, slaved)
                r4 = r + h * (_DP_A41 * k1r + _DP_A42 * k2r + _DP_A43 * k3r)
                q4 = phi + h * (_DP_A41 * k1p + _DP_A42 * k2p + _DP_A43 * k3p)
                k4r, k4p = _rhs_x(x + _DP_C4 * h, r4, q4, k, power, form, slaved)
                r5 = r + h * (_DP_A51 * k1r + _DP_A52 * k2r + _DP_A53 * k3r + _DP_A54 * k4r)
                q5 = phi + h * (_DP_A51 * k1p + _DP_A52 * k2p + _DP_A53 * k3p + _DP_A54 * k4p)
                k5r, k5p = _rhs_x(x + _DP_C5 * h, r5, q5, k, power, form, slaved)
                r6 = r + h * (_DP_A61 * k1r + _DP_A62 * k2r + _DP_A63 * k3r + _DP_A64 * k4r + _DP_A65 * k5r)
                q6 = phi + h * (_DP_A61 * k1p + _DP_A62 * k2p + _DP_A63 * k3p + _DP_A64 * k4p + _DP_A65 * k5p)
                k6r, k6p = _rhs_x(x + h, r6, q6, k, power, form, slaved)
                r_new = r + h * (_DP_B1 * k1r + _DP_B3 * k3r + _DP_B4 * k4r + _DP_B5 * k5r + _DP_B6 * k6r)
                p_new = phi + h * (_DP_B1 * k1p + _DP_B3 * k3p + _DP_B4 * k4p + _DP_B5 * k5p + _DP_B6 * k6p)
                k7r, k7p = _rhs_x(x + h, r_new, p_new, k, power, form, slaved)
                err_r = h * (_DP_E1 * k1r + _DP_E3 * k3r + _DP_E4 * k4r + _DP_E5 * k5r + _DP_E6 * k6r + _DP_E7 * k7r)
                sr = atol + rtol * max(abs(r), abs(r_new))
                if slaved:  # the angle is held, so r alone carries the error
                    err = abs(err_r) / sr
                else:
                    err_p = h * (_DP_E1 * k1p + _DP_E3 * k3p + _DP_E4 * k4p + _DP_E5 * k5p + _DP_E6 * k6p + _DP_E7 * k7p)
                    sp = atol + rtol * max(abs(phi), abs(p_new))
                    err = math.sqrt(0.5 * ((err_r / sr) ** 2 + (err_p / sp) ** 2))
                if not 0.0 <= r_new <= _R_MAX:  # outside the flow's domain
                    err = math.nan
            except (OverflowError, ZeroDivisionError):  # beyond the double range, or a pole
                err = math.nan
            accepted = err <= 1.0
            if accepted:
                x_step = x + h
                x = x_target if land else x_step
                r = r_new
                phi = p_new
                fr, fp = k7r, k7p  # FSAL
                n_steps += 1
                if err > max_err:
                    max_err = err
                if r > r_cap:
                    capped = True
                if slaved:
                    n_slaved += 1
                    # stage 7 ran here, so the step was accepted on the branch
                    _, _, rate, s = _branch(x_step, r, k, power, form)
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
                        fr, fp = _rhs_x(x, r, phi, k, power, form)
            else:
                n_rejected += 1

            # proportional controller on the scalar error
            if err == 0.0:
                factor = 10.0
            elif math.isnan(err):  # a bad stage or r out of range: shrink as hard as allowed
                factor = 0.2
            else:
                factor = min(10.0, max(0.2, 0.9 * err ** -0.2))
            h = h * factor
            # a rejected step that still demands a sub-ulp stride means the
            # integrator cannot advance (angle singularity or equivalent)
            if (not accepted) and -h < 16.0 * 2.220446049250313e-16 * max(1.0, abs(x)):
                status = "step-underflow"
                break
        if status != "ok":
            break
        out_r.append(r)
        out_phi.append(phi)

    return out_r, out_phi, status, n_steps, n_rejected, max_err, n_slaved, capped, x, r, phi


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

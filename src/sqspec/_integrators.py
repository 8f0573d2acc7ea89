"""Low-level ODE drivers for the squeeze-parameter flow.

Two engines, both explicit:

  * an embedded Dormand-Prince 5(4) pair with proportional step control
    (the adaptive integrator), and
  * a classical fixed-step fourth-order Runge-Kutta scheme used for
    cross-validation.

The flow is integrated in the dimensionless variable x = -k eta, which
decreases from deep sub-horizon (x >> 1) through horizon crossing (x = 1)
to the super-horizon evaluation point, so steps are negative in x.

Stiffness handling.  The rotation-angle equation carries a coth(r) relaxation
rate: for r ~ 1e-6 the angle is attracted to its quasi-static fixed point
about 1e6/k times faster than any other scale in the problem.  Resolving that
with an explicit method costs ~coth(r)/k steps per unit x, which is
astronomically many exactly in the regime the pipeline must sweep.  The
attraction is so strong that the angle deviates from the fixed-point branch

    sin(2 phi*) = 2 M_P mu2 / [A tanh(r)/(1 + mu2 tanh r) + M_P (coth r + mu2)]
    cos(2 phi*) = -sqrt(1 - sin^2(2 phi*))        (the attracting branch)

by less than one part in 1e12 once locked.  The adaptive driver therefore
supports an adiabatic fast path: it advances the amplitude r alone with the
same embedded pair, holding phi on the fixed-point branch.  Each stage of
that pair takes dr/dx straight from the branch formulas above; the angle
itself is formed only on entry and after an accepted step.

The path is entered when the relaxation rate times the remaining span (to
the last checkpoint), the slack, exceeds twice a budget and the state
already sits on the branch (within 1e-8).  It is left on accuracy, not on
cost.  The true angle lags phi* by (d ln rate/dx)/rate^2, so holding it on
the branch shifts dr/dx by a relative 4 |d ln rate/dx| / rate^3 (with
sin 2phi* = 2/rate, as mu2 = k/M_P; zero for the closed form).  With
d ln rate/dx taken as a finite difference between attempts, the path is left
once the slack is within the budget and that error exceeds rtol, or in any
case 200 relaxation lengths before the last checkpoint, so the full system
re-forms the lag before the angle is read.  Exit re-seeds the full system
from the branch, which is continuous.  The fast path is validated against a
stiff reference integrator in the test suite; integrate() accepts
stiff_mode="off" to force the plain explicit method.

Everything here is numba-jitted when numba is importable and falls back to
pure Python (slow but identical results) otherwise.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap


# form / coupling-power dispatch codes
FORM_CONFORMAL = 0
FORM_TRANSFORMED = 1
FORM_CLOSED = 2
POWER_LITERAL = 0
POWER_CONSISTENT = 1

# driver status codes
STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_MAX_STEPS = 2

_SLAVE_ENTRY_TOL = 1e-8  # |phi - phi*| required before the fast path engages
# relaxation lengths left to the last checkpoint when the fast path always
# hands back, so the full system re-forms the angle's lag before it is read
_SLAVE_HANDBACK = 200.0


@njit(cache=True)
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


@njit(cache=True)
def _drdeta(r, c2p, a_cc, mu2, mu2_rate, form):
    """dr/deta of the selected form, given cos(2 phi)."""
    if form == FORM_CLOSED:
        # analytic mu2 = mu2' = 0 limit; finite at r = 0
        return -a_cc * c2p
    if form == FORM_CONFORMAL:
        s2r = math.sinh(2.0 * r)
        ch2 = math.cosh(r) ** 2
        den = s2r + 2.0 * mu2 * ch2
        if den == 0.0:
            # r = 0 with mu2 = 0: take the 0/0 limit of the printed ratio
            return -a_cc * c2p - mu2_rate
        return (-a_cc * s2r * c2p - s2r * mu2_rate) / den
    tr = math.tanh(r)
    den = tr + mu2
    if den == 0.0:
        return -(mu2_rate + a_cc * c2p)
    return -tr * (mu2_rate + a_cc * c2p) / den


@njit(cache=True)
def _rhs_eta(r, phi, a_cc, mu2, mu2_rate, mp, form):
    """Conformal-time derivatives (dr/deta, dphi/deta) of the printed flow.

    a_cc is the closed-coupling factor: M_P |1 - mu1^2| in literal mode,
    |z'/z| in hamiltonian-consistent mode (resolved by the caller).  A
    non-finite angle (a stage driven through the r = 0 singularity) gives
    NaN derivatives, which the step controller rejects.
    """
    if not math.isfinite(phi):
        return math.nan, math.nan
    tr = math.tanh(r)
    s2p = math.sin(2.0 * phi)
    drdeta = _drdeta(r, math.cos(2.0 * phi), a_cc, mu2, mu2_rate, form)
    if form == FORM_CLOSED:
        return drdeta, 0.5 * s2p * (a_cc * tr + mp * _coth(r))
    dpdeta = -mp * mu2 + 0.5 * s2p * (
        a_cc * tr / (1.0 + mu2 * tr) + mp * (_coth(r) + mu2)
    )
    return drdeta, dpdeta


@njit(cache=True)
def _couplings_x(x, k, mp, power, zero_coupling):
    """(a_cc, mu2) at x = -k eta on the constant-eps background."""
    lam = 0.0 if zero_coupling else k / x  # |z'/z| = 1/|eta|
    mu2 = k / mp
    if power == POWER_LITERAL:
        a_cc = lam * lam / mp
    else:
        a_cc = lam
    return a_cc, mu2


@njit(cache=True)
def _rhs_x(x, r, phi, k, mp, power, form, mu2_rate, zero_coupling):
    """(dr/dx, dphi/dx); x = -k eta so d/dx = -(1/k) d/deta."""
    a_cc, mu2 = _couplings_x(x, k, mp, power, zero_coupling)
    drdeta, dpdeta = _rhs_eta(r, phi, a_cc, mu2, mu2_rate, mp, form)
    return -drdeta / k, -dpdeta / k


@njit(cache=True)
def _phase_bracket(r, a_cc, mu2, mp, form):
    """Bracket B multiplying sin(2 phi)/2 in dphi/deta (the relaxation scale)."""
    tr = math.tanh(r)
    if form == FORM_CLOSED:
        return a_cc * tr + mp * _coth(r)
    return a_cc * tr / (1.0 + mu2 * tr) + mp * (_coth(r) + mu2)


@njit(cache=True)
def _attractor_phi(x, r, phi_anchor, k, mp, power, form, zero_coupling):
    """Stable fixed point of the angle equation, branch nearest phi_anchor.

    Returns (phi_star, ok); ok is False when the fixed point does not exist
    or is too marginal (sin 2phi* >= 0.99) to be an attractor.
    """
    if form == FORM_CLOSED:
        s = 0.0
    else:
        a_cc, mu2 = _couplings_x(x, k, mp, power, zero_coupling)
        s = 2.0 * mp * mu2 / _phase_bracket(r, a_cc, mu2, mp, form)
    if not (0.0 <= s < 0.99):
        return phi_anchor, False
    base = 0.5 * (math.pi - math.asin(s))
    m = round((phi_anchor - base) / math.pi)
    return base + m * math.pi, True


@njit(cache=True)
def _slaved_drdx(x, r, phi_anchor, k, mp, power, form, mu2_rate, zero_coupling):
    """dr/dx with phi on the branch _attractor_phi picks, without forming phi.

    On the branch cos(2 phi*) = -sqrt(1 - sin^2(2 phi*)); where the branch
    does not exist the angle stays at phi_anchor, as in _attractor_phi.
    """
    a_cc, mu2 = _couplings_x(x, k, mp, power, zero_coupling)
    if form == FORM_CLOSED:
        c2p = -1.0
    else:
        s = 2.0 * mp * mu2 / _phase_bracket(r, a_cc, mu2, mp, form)
        if 0.0 <= s < 0.99:
            c2p = -math.sqrt(1.0 - s * s)
        else:
            c2p = math.cos(2.0 * phi_anchor)
    return -_drdeta(r, c2p, a_cc, mu2, mu2_rate, form) / k


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


@njit(cache=True)
def _drive_adaptive(
    xs,
    r0,
    phi0,
    k,
    mp,
    power,
    form,
    mu2_rate,
    zero_coupling,
    rtol,
    atol,
    r_cap,
    stiff_auto,
    stiff_budget,
    max_steps,
):
    """Advance (r, phi) through the decreasing checkpoints xs.

    Returns (out_r, out_phi, n_filled, status, n_steps, n_rejected, max_err,
    n_slaved, capped, clamped, fail_x, fail_r, fail_phi); n_filled
    counts completed checkpoints, and the fail_* scalars carry the true state
    where integration stopped when status != 0.
    """
    n_out = len(xs)
    out_r = np.empty(n_out)
    out_phi = np.empty(n_out)
    out_r[0] = r0
    out_phi[0] = phi0

    x = xs[0]
    x_end = xs[n_out - 1]
    r = r0
    phi = phi0

    status = STATUS_OK
    n_steps = 0
    n_rejected = 0
    n_slaved = 0
    max_err = 0.0
    capped = False
    clamped = False

    slaved = False
    x_prev = x
    ln_rate_prev = 0.0
    dlnrate = 0.0
    h = -(xs[0] - x_end) * 1e-4  # negative: x decreases
    if h == 0.0:
        h = -1e-8

    fr, fp = _rhs_x(x, r, phi, k, mp, power, form, mu2_rate, zero_coupling)

    i_out = 1
    while i_out < n_out:
        x_target = xs[i_out]

        while x > x_target:
            if n_steps + n_rejected > max_steps:
                status = STATUS_MAX_STEPS
                return (
                    out_r, out_phi, i_out, status, n_steps, n_rejected,
                    max_err, n_slaved, capped, clamped, x, r, phi,
                )

            # mode switching, with hysteresis to avoid chatter
            if stiff_auto:
                a_cc, mu2 = _couplings_x(x, k, mp, power, zero_coupling)
                rate = _phase_bracket(r, a_cc, mu2, mp, form) / k
                slack = rate * (x - x_end)
                if slaved:
                    ln_rate = math.log(rate)
                    if x != x_prev:
                        dlnrate = (ln_rate - ln_rate_prev) / (x - x_prev)
                        x_prev = x
                        ln_rate_prev = ln_rate
                    # relative dr/dx error of ignoring the angle's lag behind
                    # phi* (see the module docstring)
                    lagging = (
                        form != FORM_CLOSED
                        and slack <= stiff_budget
                        and 4.0 * abs(dlnrate) > rtol * rate * rate * rate
                    )
                    if lagging or slack <= _SLAVE_HANDBACK:
                        slaved = False
                        fr, fp = _rhs_x(
                            x, r, phi, k, mp, power, form, mu2_rate, zero_coupling
                        )
                else:
                    if slack > 2.0 * stiff_budget:
                        ps, ok = _attractor_phi(
                            x, r, phi, k, mp, power, form, zero_coupling
                        )
                        if ok and abs(phi - ps) < _SLAVE_ENTRY_TOL:
                            slaved = True
                            phi = ps
                            x_prev = x
                            ln_rate_prev = math.log(rate)
                            dlnrate = 0.0

            land = False
            if h <= x_target - x:
                h = x_target - x
                land = True

            if slaved:
                # one-variable embedded step for r on the fixed-point branch
                k1 = _slaved_drdx(x, r, phi, k, mp, power, form, mu2_rate, zero_coupling)
                y2 = r + h * _DP_A21 * k1
                k2 = _slaved_drdx(x + _DP_C2 * h, y2, phi, k, mp, power, form, mu2_rate, zero_coupling)
                y3 = r + h * (_DP_A31 * k1 + _DP_A32 * k2)
                k3 = _slaved_drdx(x + _DP_C3 * h, y3, phi, k, mp, power, form, mu2_rate, zero_coupling)
                y4 = r + h * (_DP_A41 * k1 + _DP_A42 * k2 + _DP_A43 * k3)
                k4 = _slaved_drdx(x + _DP_C4 * h, y4, phi, k, mp, power, form, mu2_rate, zero_coupling)
                y5 = r + h * (_DP_A51 * k1 + _DP_A52 * k2 + _DP_A53 * k3 + _DP_A54 * k4)
                k5 = _slaved_drdx(x + _DP_C5 * h, y5, phi, k, mp, power, form, mu2_rate, zero_coupling)
                y6 = r + h * (_DP_A61 * k1 + _DP_A62 * k2 + _DP_A63 * k3 + _DP_A64 * k4 + _DP_A65 * k5)
                k6 = _slaved_drdx(x + h, y6, phi, k, mp, power, form, mu2_rate, zero_coupling)
                r_new = r + h * (_DP_B1 * k1 + _DP_B3 * k3 + _DP_B4 * k4 + _DP_B5 * k5 + _DP_B6 * k6)
                k7 = _slaved_drdx(x + h, r_new, phi, k, mp, power, form, mu2_rate, zero_coupling)
                err_r = h * (_DP_E1 * k1 + _DP_E3 * k3 + _DP_E4 * k4 + _DP_E5 * k5 + _DP_E6 * k6 + _DP_E7 * k7)
                scale = atol + rtol * max(abs(r), abs(r_new))
                err = abs(err_r) / scale
                accepted = err <= 1.0
                if accepted:
                    phi, _ = _attractor_phi(x + h, r_new, phi, k, mp, power, form, zero_coupling)
                    x = x_target if land else x + h
                    r = r_new
                    n_steps += 1
                    n_slaved += 1
                    if err > max_err:
                        max_err = err
            else:
                k1r, k1p = fr, fp
                r2 = r + h * _DP_A21 * k1r
                q2 = phi + h * _DP_A21 * k1p
                k2r, k2p = _rhs_x(x + _DP_C2 * h, r2, q2, k, mp, power, form, mu2_rate, zero_coupling)
                r3 = r + h * (_DP_A31 * k1r + _DP_A32 * k2r)
                q3 = phi + h * (_DP_A31 * k1p + _DP_A32 * k2p)
                k3r, k3p = _rhs_x(x + _DP_C3 * h, r3, q3, k, mp, power, form, mu2_rate, zero_coupling)
                r4 = r + h * (_DP_A41 * k1r + _DP_A42 * k2r + _DP_A43 * k3r)
                q4 = phi + h * (_DP_A41 * k1p + _DP_A42 * k2p + _DP_A43 * k3p)
                k4r, k4p = _rhs_x(x + _DP_C4 * h, r4, q4, k, mp, power, form, mu2_rate, zero_coupling)
                r5 = r + h * (_DP_A51 * k1r + _DP_A52 * k2r + _DP_A53 * k3r + _DP_A54 * k4r)
                q5 = phi + h * (_DP_A51 * k1p + _DP_A52 * k2p + _DP_A53 * k3p + _DP_A54 * k4p)
                k5r, k5p = _rhs_x(x + _DP_C5 * h, r5, q5, k, mp, power, form, mu2_rate, zero_coupling)
                r6 = r + h * (_DP_A61 * k1r + _DP_A62 * k2r + _DP_A63 * k3r + _DP_A64 * k4r + _DP_A65 * k5r)
                q6 = phi + h * (_DP_A61 * k1p + _DP_A62 * k2p + _DP_A63 * k3p + _DP_A64 * k4p + _DP_A65 * k5p)
                k6r, k6p = _rhs_x(x + h, r6, q6, k, mp, power, form, mu2_rate, zero_coupling)
                r_new = r + h * (_DP_B1 * k1r + _DP_B3 * k3r + _DP_B4 * k4r + _DP_B5 * k5r + _DP_B6 * k6r)
                p_new = phi + h * (_DP_B1 * k1p + _DP_B3 * k3p + _DP_B4 * k4p + _DP_B5 * k5p + _DP_B6 * k6p)
                k7r, k7p = _rhs_x(x + h, r_new, p_new, k, mp, power, form, mu2_rate, zero_coupling)
                err_r = h * (_DP_E1 * k1r + _DP_E3 * k3r + _DP_E4 * k4r + _DP_E5 * k5r + _DP_E6 * k6r + _DP_E7 * k7r)
                err_p = h * (_DP_E1 * k1p + _DP_E3 * k3p + _DP_E4 * k4p + _DP_E5 * k5p + _DP_E6 * k6p + _DP_E7 * k7p)
                sr = atol + rtol * max(abs(r), abs(r_new))
                sp = atol + rtol * max(abs(phi), abs(p_new))
                err = math.sqrt(0.5 * ((err_r / sr) ** 2 + (err_p / sp) ** 2))
                accepted = err <= 1.0
                if accepted:
                    x = x_target if land else x + h
                    r = r_new
                    phi = p_new
                    fr, fp = k7r, k7p  # FSAL
                    n_steps += 1
                    if err > max_err:
                        max_err = err

            if accepted:
                if r < 0.0:
                    r = 0.0
                    clamped = True
                    if not slaved:
                        fr, fp = _rhs_x(x, r, phi, k, mp, power, form, mu2_rate, zero_coupling)
                if r > r_cap:
                    capped = True
            else:
                n_rejected += 1

            # proportional controller on the scalar error
            if err == 0.0:
                factor = 10.0
            elif math.isnan(err):  # a non-finite stage: shrink as hard as allowed
                factor = 0.2
            else:
                factor = min(10.0, max(0.2, 0.9 * err ** -0.2))
            h = h * factor
            # a rejected step that still demands a sub-ulp stride means the
            # integrator cannot advance (angle singularity or equivalent)
            if (not accepted) and -h < 16.0 * 2.220446049250313e-16 * max(1.0, abs(x)):
                status = STATUS_STEP_UNDERFLOW
                return (
                    out_r, out_phi, i_out, status, n_steps, n_rejected,
                    max_err, n_slaved, capped, clamped, x, r, phi,
                )

        out_r[i_out] = r
        out_phi[i_out] = phi
        i_out += 1

    return (
        out_r, out_phi, n_out, status, n_steps, n_rejected,
        max_err, n_slaved, capped, clamped, x, r, phi,
    )


@njit(cache=True)
def _drive_rk4(
    xs,
    n_sub,
    r0,
    phi0,
    k,
    mp,
    power,
    form,
    mu2_rate,
    zero_coupling,
    r_cap,
):
    """Classical RK4 with n_sub[i] equal steps on segment xs[i] -> xs[i+1].

    Plain full-system stepping, no stiffness bypass; meant for
    cross-validating the adaptive driver on well-conditioned windows.
    Returns (out_r, out_phi, n_steps, capped, clamped).
    """
    n_out = len(xs)
    out_r = np.empty(n_out)
    out_phi = np.empty(n_out)
    out_r[0] = r0
    out_phi[0] = phi0

    r = r0
    phi = phi0
    n_steps = 0
    capped = False
    clamped = False

    for i in range(n_out - 1):
        x0 = xs[i]
        x1 = xs[i + 1]
        n = n_sub[i]
        h = (x1 - x0) / n
        x = x0
        for _ in range(n):
            k1r, k1p = _rhs_x(x, r, phi, k, mp, power, form, mu2_rate, zero_coupling)
            k2r, k2p = _rhs_x(
                x + 0.5 * h, r + 0.5 * h * k1r, phi + 0.5 * h * k1p,
                k, mp, power, form, mu2_rate, zero_coupling,
            )
            k3r, k3p = _rhs_x(
                x + 0.5 * h, r + 0.5 * h * k2r, phi + 0.5 * h * k2p,
                k, mp, power, form, mu2_rate, zero_coupling,
            )
            k4r, k4p = _rhs_x(
                x + h, r + h * k3r, phi + h * k3p,
                k, mp, power, form, mu2_rate, zero_coupling,
            )
            r = r + h * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0
            phi = phi + h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
            x += h
            n_steps += 1
            if r < 0.0:
                r = 0.0
                clamped = True
            if r > r_cap:
                capped = True
        x = x1  # land exactly
        out_r[i + 1] = r
        out_phi[i + 1] = phi

    return out_r, out_phi, n_steps, capped, clamped

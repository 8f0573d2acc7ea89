"""Right-hand sides of the squeeze flow for the drivers in _integrators.

_flow holds the printed flow in conformal time, each formula once: the
closed-coupling factor A, the coth r Laurent series, the bracket B of the
angle equation and dr/deta in the printed transformed form, with the
ratio tanh r / (tanh r + mu2) in place of the conformal form's sinh 2r /
(sinh 2r + 2 mu2 cosh^2 r), the same expression (squeeze_dynamics).  It
takes no sinh or cosh and stays finite where A sinh 2r would overflow.
Every function here takes mu2 as a number: k for the conformal form, and 0
for the closed-reference oracle, which is the printed flow at mu2 = 0
(integrate and rhs in squeeze_dynamics resolve the form's name).  The
RK4 driver's _rhs_x and the public rhs in squeeze_dynamics read _flow.
The adaptive driver's two stages inline it, so each stage is one Python
call: _stage gives (du/dtau, dphi/dtau) of the full system, u = ln r and
tau = -1/x, and _slaved_stage the slaved regime's; tests hold both to
_flow.

Stiffness handling.  The angle equation carries a coth(r) relaxation rate:
for r ~ 1e-6 the angle is attracted to its quasi-static branch

    sin(2 phi*) = s = 2 mu2 / B,   cos(2 phi*) = -c = -sqrt(1 - s^2)

about 1e6/k times faster than any other scale, which an explicit method
resolves only with ~coth(r)/k steps per unit x.  The slaved regime holds
the angle on the slow manifold phi~ = phi* + delta1 + delta2 (Kokotovic,
Khalil & O'Reilly, Singular Perturbation Methods in Control, 1999,
ch. 1-2).  With the relaxation rate nu = B c / k per unit x, delta1 =
(dphi*/dx) / nu, where dphi*/dx = s (dB/dx) / (2 B c), and delta2 =
(d delta1/dx) / nu.  _slaved_stage forms both x-derivatives in closed form
along the zeroth-order flow dr/dx = -g c / k: dB/dx and d^2B/dx^2 from
A ~ x^-p at fixed r (p = 2 literal, 1 consistent) and the r-derivatives of
B, g and c.  The stage reads the flow at cos(2 phi~) = -c cos(2 delta) -
s sin(2 delta) and returns sin(2 phi~), from which _attractor_phi forms the
accepted angle.  At mu2 = 0, s = 0, so delta = 0.  A slaved stage off the
branch (s outside [0, 0.99)) is NaN and is rejected.  phi~ omits
delta3 = (d^2 delta1/dx^2) / nu^2, which _lag takes from a difference of
the closed form d delta1/dx over 1e-4 of x or of ln r.

The slaved regime steps w = r + mu2 ln sinh r (_w_at), so that dr/deta =
-A' tanh r / (tanh r + mu2) cos(2 phi) becomes exactly dw/deta = -A'
cos(2 phi), which _slaved_stage returns as dw/dtau.  _u_at inverts w by
Newton in u = ln r.

Everything here runs on Python floats and imports no numpy (_integrators).
"""

from __future__ import annotations

import math

# Newton steps of _u_at, the linearization's included, before the solve fails
_NEWTON_MAX = 8
# width of _lag's difference, relative in x and absolute in ln r
_LAG_DX = 1e-4


def _flow(r, phi, lam, mu2, power):
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
    # the bracket B of the angle equation; coth r + mu2 is summed first, as in
    # the printed M_P (coth r + mu2)
    bracket = a_cc * tr / (1.0 + mu2 * tr) + (coth + mu2)
    ratio = tr / (tr + mu2) if mu2 != 0.0 else 1.0  # 1 at mu2 = 0, also at r = 0
    return -a_cc * ratio * c2p, 0.5 * math.sin(two_phi) * bracket - mu2


def _stage(tau, u, phi, k, power, mu2):
    """(du/dtau, dphi/dtau) of the full system at tau = -1/x, u = ln r: _flow
    inlined, |z'/z| = 1/|eta| = k/x = -k tau, and d/dtau = x^2 d/dx =
    -(x^2/k) d/deta with x^2 = 1/tau^2.  An angle whose 2 phi is not finite
    raises ValueError in cos, and the driver rejects the attempt."""
    r = math.exp(u)
    lam = -k * tau
    a_cc = lam * lam if power == "literal" else lam
    tr = math.tanh(r)
    coth = 1.0 / r + r / 3.0 + r * r * r / 45.0 if r < 1e-4 else 1.0 / tr  # as in _flow
    two_phi = 2.0 * phi
    c2p = math.cos(two_phi)
    bracket = a_cc * tr / (1.0 + mu2 * tr) + (coth + mu2)
    drdeta = -a_cc * (tr / (tr + mu2)) * c2p
    scale = -1.0 / (k * tau * tau)
    return scale * drdeta / r, scale * (0.5 * math.sin(two_phi) * bracket - mu2)


def _rhs_x(x, r, phi, k, power, mu2):
    """(dr/dx, dphi/dx) of the full system, for the RK4 driver."""
    drdeta, dpdeta = _flow(r, phi, k / x, mu2, power)
    return -drdeta / k, -dpdeta / k


def _slaved_stage(tau, u, k, power, mu2):
    """(dw/dtau, sin 2phi~, delta1, B, s, d delta1/dx) with the angle on the
    slow manifold phi~ (module docstring), at tau = -1/x, u = ln r; s = 0
    at mu2 = 0.  Off the branch (s outside [0, 0.99), too marginal
    to hold the angle) dw/dtau and the delta terms are NaN, which the
    controller rejects."""
    r = math.exp(u)
    lam = -k * tau  # |z'/z| = k/x
    literal = power == "literal"
    a_cc = lam * lam if literal else lam
    tr = math.tanh(r)
    coth = 1.0 / r + r / 3.0 + r * r * r / 45.0 if r < 1e-4 else 1.0 / tr  # as in _flow
    # dw/deta = -A' cos(2 phi) exactly, and d/dtau = -(x^2/k) d/deta
    scale = -a_cc / (k * tau * tau)
    den1 = 1.0 + mu2 * tr
    bracket = a_cc * tr / den1 + (coth + mu2)
    s = 2.0 * mu2 / bracket
    if not 0.0 <= s < 0.99:
        return math.nan, s, math.nan, bracket, s, math.nan
    cc = 1.0 - s * s
    c = math.sqrt(cc)  # -cos(2 phi*)
    # x-derivatives along the zeroth-order flow dr/dx = -g c / k, g = A' tanh r
    # / (tanh r + mu2), over B^2 so that csch^2 r ~ 1/r^2 cannot overflow; A' ~
    # x^-p at fixed r (p = 2 literal, 1 consistent), and 1/x = -tau
    ib = 1.0 / bracket
    ib2 = ib * ib
    e2 = ib2 / (den1 * den1)  # 1 / (B (1 + mu2 tanh r))^2
    q = coth * ib
    csch2 = q * q - ib2  # csch^2 r / B^2
    tr1 = 1.0 - tr * tr  # d tanh r/dr
    tk = tr + mu2
    g = a_cc * tr / tk
    drdx = -g * c / k
    a_x = (2.0 if literal else 1.0) * a_cc * tau  # dA'/dx = -p A'/x
    b_r = a_cc * tr1 * e2 - csch2  # dB/dr / B^2
    dbdx = a_x * tr / den1 * ib2 + b_r * drdx  # dB/dx / B^2
    # d^2B/dx^2 / B^2, with d^2r/dx^2 = -(dg/dx c + g dc/dx) / k
    b_rr = 2.0 * (coth * csch2 - a_cc * tr1 * (tr + mu2 * tr1 / den1) * e2)
    d2rdx2 = -((a_x * tr + a_cc * mu2 * tr1 / tk * drdx) / tk * c + g * s * s * dbdx * bracket / c) / k
    b_xx = (
        ((3.0 if literal else 2.0) * tau * tr / den1 * ib2 + 2.0 * tr1 * e2 * drdx) * a_x
        + b_rr * drdx * drdx
        + b_r * d2rdx2
    )
    # delta1 = (dphi*/dx) / nu with nu = B c / k, its x-derivative, and
    # delta2 = (d delta1/dx) / nu
    d1 = 0.5 * s * k * dbdx / cc
    dd1 = mu2 * k * ib / cc * (b_xx - dbdx * dbdx * bracket * (2.0 + (1.0 + s * s) / cc))
    delta = d1 + dd1 * k * ib / c
    c2d = math.cos(2.0 * delta)
    s2d = math.sin(2.0 * delta)
    return scale * (c * c2d + s * s2d), s * c2d - c * s2d, d1, bracket, s, dd1


def _attractor_phi(s, phi_anchor):
    """The attractor angle with sin(2 phi*) = s, on the copy (mod pi) nearest
    phi_anchor; the attracting branch has cos(2 phi*) = -sqrt(1 - s^2)."""
    base = 0.5 * (math.pi - math.asin(s))
    return base + round((phi_anchor - base) / math.pi) * math.pi


def _lag(tau, u, st, k, power, mu2):
    """The omitted term delta3 = (d^2 delta1/dx^2) / nu^2 of phi~ at (tau,
    u), where the slaved stage gave the tuple st: (2 s |delta3| / c, the
    relative shift of dr/dx, and |delta3|, the angle's).  d^2 delta1/dx^2 is
    a difference of the closed form d delta1/dx along the zeroth-order flow,
    over _LAG_DX of x or of ln r, whichever is narrower, towards smaller x;
    NaN where that leaves the branch."""
    _, _, _, bracket, s, dd1 = st
    if s == 0.0:  # mu2 = 0: phi~ = phi* exactly
        return 0.0, 0.0
    if not 0.0 < s < 0.99:  # off the branch
        return math.nan, math.nan
    c = math.sqrt(1.0 - s * s)
    x = -1.0 / tau
    r = math.exp(u)
    lam = k / x
    tr = math.tanh(r)
    dudx = -(lam * lam if power == "literal" else lam) * tr / (tr + mu2) * c / (k * r)
    dx = _LAG_DX * x / max(1.0, abs(x * dudx))  # ln r may vary as x^(-1/mu2)
    ahead = _slaved_stage(-1.0 / (x - dx), u - dx * dudx, k, power, mu2)[5]
    delta3 = abs(dd1 - ahead) / dx * (k / (bracket * c)) ** 2
    return 2.0 * s * delta3 / c, delta3


def _w_at(u, mu2):
    """(w, dw/du) at u = ln r: w = r + mu2 ln sinh r, which the slaved regime
    steps."""
    r = math.exp(u)
    return r + mu2 * math.log(math.sinh(r)), r + mu2 * r / math.tanh(r)


def _u_at(w, u0, w0, dw0, mu2):
    """(u, dw/du) where w takes the value w, u = ln r, by Newton from the
    linearization at (u0, w0, dw/du = dw0).  w is convex in u and concave
    in r, so a Newton step in u lands past the root and one in r short of
    it.  Each iteration steps in r where r >= mu2, where w ~ r, and in u
    where r < mu2, where w ~ mu2 ln r, up to no further than r = e mu2,
    where that form bends.  It stops once the next correction, at most this
    one squared, or d^3 / d_prev^2 at the rate seen, is within ~4 ulp, and
    past _NEWTON_MAX steps the solve fails as NaN.  dw/du is taken at the
    last iterate.  At mu2 = 0, w = r."""
    if mu2 == 0.0:  # w = r
        u = math.log(w)
        return u, math.exp(u)
    ln_mu2 = math.log(mu2)
    u, wu, dw = u0, w0, dw0
    dd_prev = 0.0
    for _ in range(_NEWTON_MAX):  # the first step is the linearization's
        d = (w - wu) / dw
        u += math.log1p(d) if d > -1.0 and u >= ln_mu2 else min(d, ln_mu2 + 1.0 - u) if d > 0.0 else d
        dd = d * d
        tol = 1e-15 * (1.0 + abs(u))  # ~4 ulp of max(|u|, 1)
        if not dd > tol or dd * dd * dd <= tol * tol * dd_prev * dd_prev:
            return (u, dw) if d == d else (math.nan, math.nan)
        dd_prev = dd
        wu, dw = _w_at(u, mu2)
    return math.nan, math.nan

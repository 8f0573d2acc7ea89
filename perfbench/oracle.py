"""Closed-form horizon-crossing amplitude for the literal-coupling flow.

With the angle locked on its attracting branch (cos 2phi = -1 to leading
order) and r << 1, the literal-coupling amplitude equation in x = -k eta
reduces to dr/dx = -(k / x^2) r / (r + k), whose solution through
r(x_start) = r0 is

    r(x) = k W((r0 / k) exp(r0 / k + 1/x - 1/x_start))

with W the principal branch of the Lambert W function.  The approximation
error is far below the integrator tolerance at x = 1, where r ~ e r0, so
the difference to the swept r measures the integrator's accuracy.
"""

from __future__ import annotations

import math

__all__ = ["lambert_w", "r_closed"]


def lambert_w(z: float) -> float:
    """Principal branch W(z) for z >= 0 by Halley iteration (Corless et al.,
    Adv. Comput. Math. 5, 1996)."""
    if not z >= 0.0 or math.isinf(z):
        raise ValueError(f"lambert_w needs a finite z >= 0, got {z}")
    w = math.log1p(z) if z < math.e else math.log(z) - math.log(math.log(z))
    for _ in range(64):
        ew = math.exp(w)
        f = w * ew - z
        w_next = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        if abs(w_next - w) <= 4.0 * math.ulp(w_next):
            return w_next
        w = w_next
    return w


def r_closed(k: float, x: float, r0: float, x_start: float) -> float:
    """Closed-form r(x) of the literal-coupling flow for internal wavenumber k."""
    return k * lambert_w((r0 / k) * math.exp(r0 / k + 1.0 / x - 1.0 / x_start))

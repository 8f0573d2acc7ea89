import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from sqspec.bogoliubov import (
    bd_mode,
    coefficients,
    mode_function,
    occupation,
    wronskian_residual,
)
from sqspec.spectrum import gamma_ratio
from sqspec.squeeze_dynamics import SqueezeState

LN2 = math.log(2.0)


def random_states(n, seed=3, r_max=5.0):
    rng = np.random.RandomState(seed)
    return [
        SqueezeState(r=rng.uniform(0, r_max), phi=rng.uniform(-math.pi, math.pi), x=1.0)
        for _ in range(n)
    ]


class TestBdMode:
    def test_plane_wave_asymptote(self):
        for k in (0.3, 1.0, 4.0):
            v = bd_mode(-1e8 / k, k)
            assert abs(v) ** 2 == pytest.approx(1.0 / (2 * k), rel=1e-12)

    def test_crossing_amplitude(self):
        # |1 - i/(k eta)|^2 = 2 at k eta = -1
        for k in (0.5, 1.0, 2.0):
            assert abs(bd_mode(-1.0 / k, k)) ** 2 == pytest.approx(1.0 / k, rel=1e-14)

    def test_super_horizon_value(self):
        assert abs(bd_mode(-0.1, 1.0)) ** 2 == pytest.approx(50.5, rel=1e-14)

    def test_rejects_nonnegative_eta(self):
        with pytest.raises(ValueError):
            bd_mode(0.0, 1.0)

    @pytest.mark.parametrize(
        "eta,k,named",
        [
            (math.nan, 1.0, "eta=nan"),
            (-math.inf, 1.0, "eta=-inf"),
            (0.0, 1.0, "eta=0.0"),
            (-1.0, math.nan, "k=nan"),
            (-1.0, math.inf, "k=inf"),
            (-1.0, 0.0, "k=0.0"),
        ],
    )
    def test_bad_argument_named(self, eta, k, named):
        # NaN and +-inf fail the sign checks instead of returning NaN
        with pytest.raises(ValueError, match=re.escape(named) + "$"):
            bd_mode(eta, k)

    def test_mode_sample_asymptotic_invariant(self):
        # deep sub-horizon the BD mode carries |v_BD|^2 -> 1/(2k)
        k = 0.7
        assert abs(bd_mode(-1e7 / k, k)) ** 2 == pytest.approx(1.0 / (2 * k), rel=1e-10)


class TestCoefficients:
    def test_identity_at_zero_squeezing(self):
        pair = coefficients(SqueezeState(r=0.0, phi=0.7, x=1.0))
        assert pair.alpha == 1.0 + 0.0j
        assert pair.beta == -0.0 * cmath.exp(-0.7j)  # exactly zero magnitude
        assert abs(pair.beta) == 0.0

    def test_ln2_rational_values(self):
        pair = coefficients(SqueezeState(r=LN2, phi=0.0, x=1.0))
        assert pair.alpha.real == pytest.approx(1.25, rel=1e-15)
        assert pair.beta.real == pytest.approx(-0.75, rel=1e-15)
        assert pair.wronskian_residual < 1e-15

    def test_quarter_turn_phase(self):
        pair = coefficients(SqueezeState(r=1.0, phi=math.pi / 2, x=1.0))
        expected = -cmath.exp(-1j * math.pi / 2) * math.sinh(1.0)
        assert pair.beta == pytest.approx(expected, rel=1e-15)
        assert pair.beta.imag == pytest.approx(math.sinh(1.0), rel=1e-12)

    def test_wronskian_over_random_states(self):
        worst = max(coefficients(s).wronskian_residual for s in random_states(2000))
        assert worst < 1e-12

    def test_stored_value_residual_at_representational_floor(self):
        # stored doubles carry an ulp(|beta|^2) ~ 1.2e-12 floor at r = 5;
        # the stored-value check must resolve the defect, not hide it
        a = complex(math.cosh(5.0), 0.0)
        b = -cmath.exp(-0.3j) * math.sinh(5.0)
        assert wronskian_residual(a, b) < 1e-11
        # and it must see a genuinely broken pair at full scale
        assert wronskian_residual(a, 1.01 * b) > 1e2

    def test_stored_value_residual_is_exactly_rounded(self):
        # the stored doubles' |alpha|^2 - |beta|^2 - 1 in exact rationals,
        # rounded once: the residual must equal it bit for bit
        rng = np.random.RandomState(29)
        for _ in range(2000):
            r, phi = rng.uniform(0.0, 40.0), rng.uniform(-10.0, 10.0)
            a = complex(math.cosh(r), rng.uniform(-1.0, 1.0) * rng.choice([0.0, 1.0]))
            b = -cmath.exp(-1j * phi) * math.sinh(r) * (1.0 + rng.uniform(-1e-9, 1e-9))
            exact = (
                Fraction(a.real) ** 2 + Fraction(a.imag) ** 2
                - Fraction(b.real) ** 2 - Fraction(b.imag) ** 2 - 1
            )
            assert wronskian_residual(a, b) == float(abs(exact))


class TestModeFunction:
    def test_reduces_to_bd_exactly(self):
        rng = np.random.RandomState(5)
        state = SqueezeState(r=0.0, phi=0.0, x=1.0)
        for _ in range(50):
            eta = -rng.uniform(0.01, 100.0)
            k = rng.uniform(0.05, 5.0)
            assert mode_function(state, eta, k) == bd_mode(eta, k)

    def test_super_horizon_ratio_approaches_gamma(self):
        state = SqueezeState(r=0.3, phi=0.7, x=1.0)
        k = 1.0
        ratio = abs(mode_function(state, -0.01, k)) ** 2 / abs(bd_mode(-0.01, k)) ** 2
        assert ratio == pytest.approx(gamma_ratio(state), rel=1e-4)

    def test_ratio_converges_monotonically(self):
        state = SqueezeState(r=0.4, phi=1.1, x=1.0)
        gamma = gamma_ratio(state)
        devs = []
        for m in range(1, 5):
            eta = -(10.0 ** -m)
            ratio = abs(mode_function(state, eta, 1.0)) ** 2 / abs(bd_mode(eta, 1.0)) ** 2
            devs.append(abs(ratio - gamma))
        assert all(b < a for a, b in zip(devs, devs[1:]))

    @pytest.mark.parametrize("x", [10.0, 1.0, 0.1])
    def test_ratio_closed_form_at_any_eta(self, x):
        # |alpha + beta v_BD*/v_BD|^2 with v_BD*/v_BD = -e^{-i(2x + 2 atan(1/x))}
        # at k eta = -x: cosh 2r - sinh 2r cos(2x + 2 atan(1/x) + phi), which
        # tends to gamma as x -> 0
        k = 1.7
        for s in random_states(200, seed=31):
            got = abs(mode_function(s, -x / k, k) / bd_mode(-x / k, k)) ** 2
            expected = math.cosh(2 * s.r) - math.sinh(2 * s.r) * math.cos(
                2 * x + 2 * math.atan(1 / x) + s.phi
            )
            assert got == pytest.approx(expected, rel=1e-11)

    def test_ratio_before_square_stays_finite_near_double_range(self):
        # at crossing |v_z|^2 ~ cosh^2 r / k overflows a double at r = 354,
        # k = 1e-4; the ratio does not
        k = 1e-4
        state = SqueezeState(r=354.0, phi=0.4, x=1.0)
        v_z, v_bd = mode_function(state, -1.0 / k, k), bd_mode(-1.0 / k, k)
        with pytest.raises(OverflowError):
            abs(v_z) ** 2
        assert math.isfinite(abs(v_z / v_bd) ** 2)


class TestOccupation:
    def test_vacuum(self):
        assert occupation(SqueezeState(r=0.0, phi=0.0, x=1.0)) == 0.0

    def test_ln2(self):
        assert occupation(SqueezeState(r=LN2, phi=0.2, x=1.0)) == pytest.approx(
            0.5625, rel=1e-14
        )

    def test_matches_beta_squared(self):
        for s in random_states(500, seed=8):
            pair = coefficients(s)
            assert occupation(s) == pytest.approx(abs(pair.beta) ** 2, rel=1e-13)


def kernel(state):
    """Vacuum kernel beta*/alpha* of the stored pair."""
    pair = coefficients(state)
    return pair.beta.conjugate() / pair.alpha.conjugate()


class TestVacuumKernel:
    def test_coinciding_vacua(self):
        assert kernel(SqueezeState(r=0.0, phi=1.0, x=1.0)) == 0.0

    def test_ln2(self):
        value = kernel(SqueezeState(r=LN2, phi=0.0, x=1.0))
        assert value.real == pytest.approx(-0.6, rel=1e-14)
        assert abs(value.imag) < 1e-16

    def test_magnitude_is_tanh_r(self):
        for s in random_states(300, seed=13):
            assert abs(kernel(s)) == pytest.approx(math.tanh(s.r), rel=1e-13)

    @pytest.mark.parametrize("r", [0.1, 1.0, 5.0, 18.0])
    def test_strictly_inside_unit_disk(self, r):
        assert abs(kernel(SqueezeState(r=r, phi=0.3, x=1.0))) < 1.0

    def test_never_outside_unit_disk_at_saturation(self):
        # tanh(r) rounds to 1.0 in doubles past r ~ 19; the stored pair's
        # ratio must not overshoot even there
        for r in (25.0, 354.0):
            assert abs(kernel(SqueezeState(r=r, phi=0.3, x=1.0))) <= 1.0

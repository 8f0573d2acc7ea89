import math

import numpy as np
import pytest

from sqspec.background import BackgroundParams
from sqspec.bogoliubov import coefficients
from sqspec.config import SweepConfig
from sqspec.pipeline import run_sweep
from sqspec.spectrum import (
    PlanckAnchors,
    SpectrumRecord,
    bd_reference_power,
    curvature_power,
    fit_tilt,
    gamma_ratio,
    mode_power,
)
from sqspec.squeeze_dynamics import SqueezeState

LN2 = math.log(2.0)
ANCH = PlanckAnchors()


def state(r, phi):
    return SqueezeState(r=r, phi=phi, x=1.0)


class TestGammaRatio:
    def test_bd_limit(self):
        assert gamma_ratio(state(0.0, 0.3)) == 1.0

    def test_aligned_phase(self):
        # cosh + sinh at 2 ln 2 collapses to e^{2r} = 4
        assert gamma_ratio(state(LN2, 0.0)) == pytest.approx(4.0, rel=1e-14)

    def test_orthogonal_phase(self):
        assert gamma_ratio(state(LN2, math.pi / 2)) == pytest.approx(2.125, rel=1e-12)

    def test_two_path_identity(self):
        rng = np.random.RandomState(17)
        for _ in range(1000):
            s = state(rng.uniform(0, 5), rng.uniform(-math.pi, math.pi))
            pair = coefficients(s)
            direct = abs(pair.alpha - pair.beta) ** 2
            # normalized to the hyperbolic scale shared by both routes
            assert abs(direct - gamma_ratio(s)) <= 1e-12 * math.cosh(2 * s.r)

    def test_exponential_bounds(self):
        rng = np.random.RandomState(23)
        for _ in range(500):
            r = rng.uniform(0, 4)
            g = gamma_ratio(state(r, rng.uniform(-math.pi, math.pi)))
            assert math.exp(-2 * r) - 1e-12 <= g <= math.exp(2 * r) + 1e-12

    def test_bounds_attained_at_phase_extremes(self):
        r = 0.8
        assert gamma_ratio(state(r, 0.0)) == pytest.approx(math.exp(2 * r), rel=1e-13)
        assert gamma_ratio(state(r, math.pi)) == pytest.approx(math.exp(-2 * r), rel=1e-11)


class TestBdReferencePower:
    def test_pivot_amplitude(self):
        assert bd_reference_power(0.05, ANCH) == 2.196e-9

    def test_scale_invariant_when_flat(self):
        flat = PlanckAnchors(tilt=1.0)
        for k in (1e-4, 0.05, 1.0):
            assert bd_reference_power(k, flat) == 2.196e-9

    def test_decade_above_pivot(self):
        # A_s * 10^(n_s - 1), cross-checked in logs at 50 digits
        assert bd_reference_power(0.5, ANCH) == pytest.approx(
            2.0255004116273877e-09, rel=1e-13
        )

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            bd_reference_power(0.0, ANCH)


class TestModePower:
    def test_bd_limit_is_pure_mode_power(self):
        # |v_BD|^2 = 1/k at crossing, so (k^3/2 pi^2) |v|^2 = 1/(2 pi^2) at k=1
        got = mode_power(-1.0, 1.0, state(0.0, 0.0))
        assert got == pytest.approx(1.0 / (2 * math.pi**2), rel=1e-14)

    def test_two_path_super_horizon(self):
        from sqspec.bogoliubov import mode_function

        s = state(0.25, 0.9)
        k, eta = 1.3, -0.001 / 1.3
        via_gamma = mode_power(eta, k, s)
        direct = k**3 / (2 * math.pi**2) * abs(mode_function(s, eta, k)) ** 2
        assert via_gamma == pytest.approx(direct, rel=1e-3)


class TestCurvaturePower:
    def test_anchored_pivot_bd(self):
        got = curvature_power(0.05, state(0.0, 0.0), anchors=ANCH)
        assert got == 2.196e-9

    def test_anchored_is_power_law_times_gamma(self):
        s = state(0.4, 0.6)
        g = gamma_ratio(s)
        for k in (1e-3, 0.05, 0.7):
            assert curvature_power(k, s, anchors=ANCH) == bd_reference_power(k, ANCH) * g

    def test_first_principles_de_sitter_amplitude(self):
        # super-horizon limit H^2 / (8 pi^2 eps M_P^2), derived analytically
        # from (k^3/2pi^2) |v_BD|^2 / (2 eps a^2) with a = -1/(H eta)
        params = BackgroundParams(hubble_rate=1e-5, epsilon=0.01)
        k = 2.0
        eta = -1e-3 / k
        got = curvature_power(k, state(0.0, 0.0), params, eta, mode="first-principles")
        expected = params.hubble_rate**2 / (8 * math.pi**2 * params.epsilon)
        assert got == pytest.approx(expected, rel=2e-6)

    def test_first_principles_needs_background(self):
        with pytest.raises(ValueError, match="first-principles"):
            curvature_power(1.0, state(0.1, 0.0), mode="first-principles")


def power_law_records(gamma=1.0, n=40, tilt=ANCH.tilt):
    ks = np.geomspace(1e-4, 1.0, n)
    recs = []
    for k in ks:
        pbd = 2.196e-9 * (k / 0.05) ** (tilt - 1.0)
        recs.append(
            SpectrumRecord(
                k=float(k), r=0.0, phi=0.0, occupation=0.0, gamma=gamma,
                power_bd=pbd, power_otmss=pbd * gamma, wronskian_residual=0.0,
            )
        )
    return recs


class TestFitTilt:
    def test_recovers_exact_power_law(self):
        amp, tilt = fit_tilt(power_law_records(), pivot=0.05)
        assert amp == pytest.approx(2.196e-9, rel=1e-12)
        assert tilt == pytest.approx(0.9649, abs=1e-12)

    def test_constant_gamma_shifts_amplitude_only(self):
        amp, tilt = fit_tilt(power_law_records(gamma=1.7), pivot=0.05)
        assert amp == pytest.approx(1.7 * 2.196e-9, rel=1e-12)
        assert tilt == pytest.approx(0.9649, abs=1e-12)

    def test_needs_three_records(self):
        with pytest.raises(ValueError, match="3"):
            fit_tilt(power_law_records(n=40)[:2])

    def test_rejects_degenerate_grid(self):
        rec = power_law_records(n=5)[0]
        with pytest.raises(ValueError, match="degenerate"):
            fit_tilt([rec, rec, rec])

    def test_matches_polyfit_on_default_sweep(self):
        report = run_sweep(SweepConfig())
        amp, tilt = fit_tilt(report.records, pivot=0.05)
        x = np.log(np.array([rec.k for rec in report.records]) / 0.05)
        y = np.log(np.array([rec.power_otmss for rec in report.records]))
        slope, intercept = np.polyfit(x, y, 1)
        assert amp == pytest.approx(np.exp(intercept), rel=1e-12)
        assert tilt == pytest.approx(1.0 + slope, rel=1e-12)


class TestAnchorsValidation:
    def test_positive_amplitude(self):
        with pytest.raises(ValueError):
            PlanckAnchors(amplitude=0.0)

    def test_positive_pivot(self):
        with pytest.raises(ValueError):
            PlanckAnchors(pivot=-0.05)

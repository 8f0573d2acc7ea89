import math

import numpy as np
import pytest

from sqspec.bogoliubov import coefficients
from sqspec.config import SweepConfig, bd_reference_power
from sqspec.pipeline import run_sweep
from sqspec.spectrum import (
    SpectrumRecord,
    fit_tilt,
    gamma_ratio,
)
from sqspec.squeeze_dynamics import SqueezeState

LN2 = math.log(2.0)
# Planck anchors: a_s, n_s, k_pivot
ANCH = (2.196e-9, 0.9649, 0.05)


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

    def test_broken_identity_raises(self, monkeypatch):
        # a pair that disagrees with the closed form is a convention bug
        import sqspec.spectrum as spectrum

        monkeypatch.setattr(spectrum, "alpha_beta", lambda s: (1.0 + 0j, 1.0 + 0j))
        with pytest.raises(AssertionError, match="spectrum-ratio identity broken"):
            gamma_ratio(state(0.5, 0.3))

    def test_bounds_attained_at_phase_extremes(self):
        r = 0.8
        assert gamma_ratio(state(r, 0.0)) == pytest.approx(math.exp(2 * r), rel=1e-13)
        assert gamma_ratio(state(r, math.pi)) == pytest.approx(math.exp(-2 * r), rel=1e-11)


class TestBdReferencePower:
    def test_pivot_amplitude(self):
        assert bd_reference_power(0.05, *ANCH) == 2.196e-9

    def test_scale_invariant_when_flat(self):
        for k in (1e-4, 0.05, 1.0):
            assert bd_reference_power(k, 2.196e-9, 1.0, 0.05) == 2.196e-9

    def test_decade_above_pivot(self):
        # A_s * 10^(n_s - 1), cross-checked in logs at 50 digits
        assert bd_reference_power(0.5, *ANCH) == pytest.approx(
            2.0255004116273877e-09, rel=1e-13
        )

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            bd_reference_power(0.0, *ANCH)


def power_law_records(gamma=1.0, n=40, tilt=0.9649):
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
            fit_tilt(power_law_records(n=40)[:2], pivot=0.05)

    def test_rejects_degenerate_grid(self):
        rec = power_law_records(n=5)[0]
        with pytest.raises(ValueError, match="degenerate"):
            fit_tilt([rec, rec, rec], pivot=0.05)

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
            bd_reference_power(0.05, 0.0, 0.9649, 0.05)

    def test_positive_pivot(self):
        with pytest.raises(ValueError):
            bd_reference_power(0.05, 2.196e-9, 0.9649, -0.05)

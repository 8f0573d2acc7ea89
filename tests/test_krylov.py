import cmath
import math
import re
import time

import numpy as np
import pytest

from sqspec.background import CouplingCoefficients, LanczosChain, lanczos_chain
from sqspec.krylov import (
    AmplitudeDivergenceError,
    characteristic_poly_residual,
    meixner_poly,
    otmss_amplitudes,
    tmss_amplitudes,
)


NAN, INF = math.nan, math.inf
CC = CouplingCoefficients(mu2=0.1, coupling=1.0)


@pytest.mark.parametrize(
    "call,named",
    [
        (lambda: otmss_amplitudes(NAN, 0.3, CC), "r=nan"),
        (lambda: otmss_amplitudes(INF, 0.3, CC), "r=inf"),
        (lambda: otmss_amplitudes(-1.0, 0.3, CC), "r=-1.0"),
        (lambda: otmss_amplitudes(0.5, NAN, CC), "phi=nan"),
        (lambda: otmss_amplitudes(0.5, 1e308, CC), "phi=1e+308"),
        (lambda: otmss_amplitudes(0.5, 0.3, CouplingCoefficients(NAN, 1.0)), "mu2=nan"),
        (lambda: otmss_amplitudes(0.5, 0.3, CouplingCoefficients(0.1, NAN)), "coupling=nan"),
        (lambda: otmss_amplitudes(0.5, 0.3, CC, n_max=-1), "n_max=-1"),
        (lambda: tmss_amplitudes(NAN, 0.0), "r=nan"),
        (lambda: meixner_poly(-1, 1.0, de_sitter_chain()), "n=-1"),
        (lambda: meixner_poly(5, 1.0, de_sitter_chain(2)), "need n=5"),
        (lambda: characteristic_poly_residual(0, 1.0, de_sitter_chain()), "n=0"),
    ],
)
def test_bad_argument_named(call, named):
    # NaN and +-inf fail the checks as a ValueError that names the argument,
    # not as an error from the automatic truncation
    with pytest.raises(ValueError, match=re.escape(named) + "$"):
        call()


def de_sitter_chain(n_max=12, eta=-1.0, k=1.0):
    return lanczos_chain(n_max, eta=eta, k=k)


def random_positive_chain(rng, n_max=12):
    return LanczosChain(
        b=np.concatenate([[0.0], rng.uniform(0.2, 3.0, size=n_max)]),
        c_mag=rng.uniform(0.1, 5.0, size=n_max + 1),
    )


class TestLiouvillian:
    def test_two_site_transcription(self):
        k = 0.8
        chain = LanczosChain(b=np.array([0.0, 1.0]), c_mag=np.array([k, 3 * k]))
        m = np.asarray(chain.matrix(2))
        # -i c_n with c_n = i * magnitude leaves the real magnitudes on the diagonal
        assert m[0, 0] == k and m[1, 1] == 3 * k
        assert m[0, 1] == 1.0 and m[1, 0] == 1.0

    def test_single_site(self):
        chain = de_sitter_chain(3)
        m = np.asarray(chain.matrix(1))
        assert m.shape == (1, 1)
        assert m[0, 0] == chain.c_mag[0]

    def test_de_sitter_offdiagonal(self):
        m = np.asarray(de_sitter_chain(5).matrix(4))
        np.testing.assert_allclose(np.diag(m, 1), [1.0, 2.0, 3.0], rtol=1e-15)
        np.testing.assert_array_equal(np.triu(m, 2), 0.0)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            de_sitter_chain(3).matrix(0)

    def test_chain_too_short(self):
        with pytest.raises(ValueError, match="chain"):
            de_sitter_chain(2).matrix(5)

    def test_symmetric_placement(self):
        m = np.asarray(de_sitter_chain(8).matrix(6))
        np.testing.assert_array_equal(m, m.T)


class TestMeixnerPoly:
    def test_degree_zero(self):
        chain = de_sitter_chain()
        for x in (0.0, 1.5, 2.0 - 3.0j):
            assert meixner_poly(0, x, chain) == 1.0

    def test_degree_one(self):
        chain = de_sitter_chain(k=0.9)
        x = 0.3 + 0.1j
        assert meixner_poly(1, x, chain) == x - chain.c_mag[0]

    def test_degree_two_hand_expanded(self):
        # P2 = (x - c1)(x - c0) - b1^2 at x = 0 with c = 0, b1 = 2
        chain = LanczosChain(b=np.array([0.0, 2.0]), c_mag=np.array([0.0, 0.0]))
        assert meixner_poly(2, 0.0, chain) == -4.0

    def test_matches_determinant_small(self):
        chain = de_sitter_chain()
        x = 1.0 + 1.0j
        assert characteristic_poly_residual(3, x, chain) < 1e-12

    def test_degree_one_residual_exact(self):
        chain = de_sitter_chain()
        for x in (0.2, -1.0 + 2.0j):
            assert characteristic_poly_residual(1, x, chain) == 0.0

    def test_zero_column_determinant(self):
        # x = c~_0 with b_1 = 0 zeroes the first column of x I - L: the
        # elimination stops at the zero pivot with determinant 0
        chain = LanczosChain(b=(0.0, 0.0), c_mag=(1.0, 2.0))
        assert meixner_poly(2, 1.0, chain) == 0.0
        assert characteristic_poly_residual(2, 1.0, chain) == 0.0

    def test_determinant_reads_entries_off_the_band(self, monkeypatch):
        # the recurrence runs on the band alone; the determinant side must
        # see an entry outside it
        band = LanczosChain.matrix

        def with_corner(chain, n):
            rows = [list(row) for row in band(chain, n)]
            rows[0][n - 1] = 1.0
            return tuple(map(tuple, rows))

        monkeypatch.setattr(LanczosChain, "matrix", with_corner)
        chain = de_sitter_chain()
        for n in (3, 6, 10):
            assert characteristic_poly_residual(n, 1.0 + 1.0j, chain) > 1e-3


class TestMeixnerDeterminantEquivalence:
    @pytest.mark.parametrize("chain_kind", ["de-sitter", "random-positive"])
    def test_relative_residual(self, chain_kind):
        rng = np.random.RandomState(42)
        chain = (
            de_sitter_chain()
            if chain_kind == "de-sitter"
            else random_positive_chain(rng)
        )
        xs = rng.uniform(-10, 10, size=(100, 2)) @ np.array([1.0, 1.0j])
        worst = 0.0
        for x in xs:
            for n in range(1, 11):
                rel = characteristic_poly_residual(n, x, chain) / max(
                    1.0, abs(meixner_poly(n, x, chain))
                )
                worst = max(worst, rel)
        assert worst < 1e-9

    def test_against_numpy_det(self):
        # third route: LU determinant of the dense matrix
        rng = np.random.RandomState(7)
        chain = random_positive_chain(rng, n_max=8)
        for n in (2, 5, 8):
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            det = np.linalg.det(
                x * np.eye(n) - np.asarray(chain.matrix(n))
            )
            p = meixner_poly(n, x, chain)
            assert abs(p - det) / max(1.0, abs(det)) < 1e-12


class TestOtmssAmplitudes:
    def test_vacuum(self):
        cc = CouplingCoefficients(mu2=0.3, coupling=1.0)
        amp = otmss_amplitudes(0.0, 1.2, cc, n_max=5)
        assert amp.coefficients[0] == 1.0
        np.testing.assert_array_equal(amp.coefficients[1:], 0.0)

    def test_tmss_limit_exact_at_mu2_zero(self):
        cc = CouplingCoefficients(mu2=0.0, coupling=1.0)
        r, phi = 0.8, 0.4
        open_amp = otmss_amplitudes(r, phi, cc, n_max=40)
        closed_amp = tmss_amplitudes(r, phi, n_max=40)
        np.testing.assert_allclose(
            open_amp.coefficients, closed_amp.coefficients, rtol=1e-14, atol=0
        )

    def test_dissipative_closed_form(self):
        # hand-substituted prefactor and geometric ratio
        cc = CouplingCoefficients(mu2=0.1, coupling=1.0)
        amp = otmss_amplitudes(1.0, 0.0, cc, n_max=50)
        psi = amp.coefficients
        assert psi[0].real == pytest.approx(0.60219170531090338, rel=1e-14)
        assert (psi[1] / psi[0]).real == pytest.approx(-0.70769641088376999, rel=1e-13)
        # norm against the geometric closed form
        rho2 = abs(psi[1] / psi[0]) ** 2
        expected = abs(psi[0]) ** 2 / (1 - rho2)
        assert amp.squared_norm == pytest.approx(expected, rel=1e-12)

    def test_ratio_constancy(self):
        cc = CouplingCoefficients(mu2=0.25, coupling=1.3)
        psi = np.asarray(otmss_amplitudes(1.1, 0.7, cc, n_max=120).coefficients)
        ratios = psi[1:] / psi[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-13)

    def test_weak_dissipation_linear_convergence(self):
        r, phi = 1.0, 0.3
        ref = tmss_amplitudes(r, phi, n_max=60).coefficients
        devs = []
        for mu2 in (1e-3, 5e-4, 2.5e-4):
            cc = CouplingCoefficients(mu2=mu2, coupling=1.0)
            devs.append(
                np.max(np.abs(np.asarray(otmss_amplitudes(r, phi, cc, n_max=60).coefficients) - ref))
            )
        assert 0.45 < devs[1] / devs[0] < 0.55
        assert 0.45 < devs[2] / devs[1] < 0.55

    def test_divergence_error_names_offenders(self):
        cc = CouplingCoefficients(mu2=0.0, coupling=5.0)
        with pytest.raises(AmplitudeDivergenceError, match="mu2"):
            otmss_amplitudes(2.0, 0.0, cc)

    def test_auto_truncation_tail(self):
        cc = CouplingCoefficients(mu2=0.05, coupling=1.0)
        amp = otmss_amplitudes(1.5, 0.2, cc)  # auto n_max
        assert amp.truncation_tail_bound < 1e-12
        got = np.sum(np.abs(amp.coefficients) ** 2)
        assert got == pytest.approx(amp.squared_norm, rel=1e-11)

    def test_normalized_by_squared_norm(self):
        # squared_norm is the infinite series, so the returned coefficients
        # divided by its root fall short of unit norm by at most the tail
        cc = CouplingCoefficients(mu2=0.2, coupling=1.0)
        amp = otmss_amplitudes(1.0, -0.4, cc)
        scale = math.sqrt(amp.squared_norm)
        total = np.sum(np.abs(np.asarray(amp.coefficients) / scale) ** 2)
        assert 1.0 - amp.truncation_tail_bound / amp.squared_norm - 1e-13 <= total <= 1.0 + 1e-13

    def test_unnormalized_norm_deficit(self):
        # with dissipation the literal series does not have unit norm
        cc = CouplingCoefficients(mu2=0.2, coupling=1.0)
        amp = otmss_amplitudes(1.0, 0.0, cc)
        assert amp.squared_norm < 1.0

    def test_auto_truncation_is_bounded(self):
        # the term count grows like e^{2r}: 6.6e7 at r = 8 would take minutes
        cc = CouplingCoefficients(mu2=0.0, coupling=1.0)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"needs 66\d{6} terms.*pass n_max"):
            otmss_amplitudes(8.0, 0.3, cc)
        assert time.perf_counter() - t0 < 0.1
        assert len(otmss_amplitudes(4.0, 0.3, cc).coefficients) == 22_307 + 1

    def test_no_overflow_past_cosh_range(self):
        # cosh(800) overflows; rho = 1/1.1 and every psi_n underflows to 0
        cc = CouplingCoefficients(mu2=0.1, coupling=1.0)
        for n_max in (2, None):
            amp = otmss_amplitudes(800.0, 0.3, cc, n_max=n_max)
            assert all(cmath.isfinite(c) for c in amp.coefficients)
            assert math.isfinite(amp.squared_norm) and amp.squared_norm >= 0.0


class TestTmssAmplitudes:
    def test_vacuum(self):
        assert tmss_amplitudes(0.0, 0.0, n_max=3).coefficients[0] == 1.0

    def test_first_coefficient_ln2(self):
        # tanh(ln 2) = 3/5, sech(ln 2) = 4/5
        psi = tmss_amplitudes(math.log(2.0), 0.0, n_max=4).coefficients
        assert psi[1].real == pytest.approx(-0.48, rel=1e-14)
        assert abs(psi[1].imag) < 1e-16

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 4.0])
    def test_unit_norm_auto_truncation(self, r):
        amp = tmss_amplitudes(r, 0.9)
        total = np.sum(np.abs(amp.coefficients) ** 2)
        assert abs(total - 1.0) < 1e-12

    def test_partial_sum_matches_tail_bound(self):
        # sum over n <= n_max equals 1 minus the analytic geometric tail
        amp = tmss_amplitudes(2.0, 0.0, n_max=200)
        total = np.sum(np.abs(amp.coefficients) ** 2)
        assert total == pytest.approx(1.0 - amp.truncation_tail_bound, abs=1e-12)

    def test_infinite_norm_is_one(self):
        for r in (0.3, 1.7, 4.2):
            assert tmss_amplitudes(r, 0.1, n_max=5).squared_norm == pytest.approx(
                1.0, rel=1e-13
            )

    @pytest.mark.parametrize("r", [10.0, 15.0, 18.0, 19.0])
    def test_unit_norm_at_large_r(self, r):
        # 1 - tanh^2 r cancelled to 1 - 1.7e-4 at r = 15 and 0.565 at r = 19
        assert abs(tmss_amplitudes(r, 0.1, n_max=5).squared_norm - 1.0) <= 2.3e-16

    def test_ratio_rounding_to_one_diverges(self):
        # tanh(19.1) rounds to 1
        with pytest.raises(AmplitudeDivergenceError):
            tmss_amplitudes(19.1, 0.1, n_max=5)

    @pytest.mark.parametrize("n_max", [0, 5, 60])
    def test_is_the_series_at_zero_dissipation(self, n_max):
        cc = CouplingCoefficients(mu2=0.0, coupling=1.0)
        for r, phi in ((0.0, 0.3), (0.8, -1.1), (3.5, 2.9)):
            assert tmss_amplitudes(r, phi, n_max) == otmss_amplitudes(r, phi, cc, n_max)


def test_squared_norm_against_mpmath():
    # the geometric closed form at 50 digits, out to r = 20
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.RandomState(5)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(300):
            r = rng.uniform(0.0, 20.0)
            mu2, root = 10.0 ** rng.uniform(-8, 1), rng.uniform(0.0, 1.5)
            try:
                got = otmss_amplitudes(r, 0.3, CouplingCoefficients(mu2, root), n_max=2)
            except AmplitudeDivergenceError:
                continue
            t = mpmath.tanh(r)
            denom = 1 + mu2 * t
            exact = (mpmath.sech(r) / denom) ** 2 / (1 - (root * t / denom) ** 2)
            worst = max(worst, float(abs(got.squared_norm / exact - 1)))
    assert worst < 1e-14

import math
import re

import numpy as np
import pytest

from sqspec.background import CouplingCoefficients, couplings, lanczos_chain

NAN, INF = math.nan, math.inf


class TestZRate:
    """z'/z = -1/eta, read where it is used: the coupling and the chain's b_1."""

    @pytest.mark.parametrize(
        "eta,expected", [(-1.0, 1.0), (-2.0, 0.5), (-0.1, 10.0)]
    )
    def test_values(self, eta, expected):
        assert couplings(eta, 0.3).coupling == pytest.approx(expected, rel=1e-15)
        assert lanczos_chain(1, eta, 0.3).b[1] == couplings(eta, 0.3).coupling

    def test_rejects_nonnegative_eta(self):
        for eta in (0.0, 1.0):
            with pytest.raises(ValueError, match="conformal time must be < 0"):
                lanczos_chain(3, eta, 1.0)
            with pytest.raises(ValueError, match="conformal time must be < 0"):
                couplings(eta, 1.0)


class TestCouplings:
    def test_horizon_crossing_equality(self):
        # at eta = -1/k the coupling equals mu2 * M_P exactly
        for k in (1e-4, 0.05, 1.0, 3.0):
            cc = couplings(-1.0 / k, k)
            assert cc.coupling == cc.mu2 * 1.0

    def test_sub_horizon(self):
        cc = couplings(-100.0, 1.0)
        assert cc.mu2 == 1.0
        assert cc.coupling == pytest.approx(0.01, rel=1e-15)

    def test_super_horizon(self):
        cc = couplings(-0.01, 1.0)
        assert cc.coupling == pytest.approx(100.0, rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            couplings(0.5, 1.0)
        with pytest.raises(ValueError):
            couplings(-1.0, -2.0)


@pytest.mark.parametrize(
    "call,named",
    [
        (lambda: CouplingCoefficients(NAN, 0.1), "mu2=nan"),
        (lambda: CouplingCoefficients(INF, 0.1), "mu2=inf"),
        (lambda: CouplingCoefficients(-1.0, 0.1), "mu2=-1.0"),
        (lambda: CouplingCoefficients(0.1, NAN), "coupling=nan"),
        (lambda: CouplingCoefficients(0.1, -1.0), "coupling=-1.0"),
        (lambda: couplings(NAN, 1.0), "eta=nan"),
        (lambda: couplings(-INF, 1.0), "eta=-inf"),
        (lambda: couplings(-1.0, NAN), "k=nan"),
        (lambda: couplings(-1.0, INF), "k=inf"),
        (lambda: lanczos_chain(3, -1.0, NAN), "k=nan"),
        (lambda: lanczos_chain(3, -1.0, 0.0), "k=0.0"),
        (lambda: lanczos_chain(3, NAN, 1.0), "eta=nan"),
    ],
)
def test_bad_argument_named(call, named):
    # NaN and +-inf fail the sign checks as a ValueError that names the argument
    with pytest.raises(ValueError, match=re.escape(named) + "$"):
        call()


class TestLanczosChain:
    def test_first_rung_de_sitter(self):
        ch = lanczos_chain(1, eta=-1.0, k=1.0)
        assert ch.b[1] == 1.0
        assert ch.c_mag[1] == 3.0

    def test_zeroth_rung(self):
        ch = lanczos_chain(0, eta=-3.3, k=0.7)
        assert len(ch) == 1
        assert ch.b[0] == 0.0
        assert ch.c_mag[0] == 0.7

    def test_fifth_rung(self):
        # b_5 = 5 * (1/2), c_5 = 11 * 0.5, hand-substituted
        ch = lanczos_chain(5, eta=-2.0, k=0.5)
        assert ch.b[5] == pytest.approx(2.5, rel=1e-15)
        assert ch.c_mag[5] == pytest.approx(5.5, rel=1e-15)

    def test_linearity_in_n(self):
        ch = lanczos_chain(40, eta=-3.0, k=0.9)
        n = np.arange(1, 41)
        np.testing.assert_allclose(np.asarray(ch.b[1:]) / ch.b[1], n, rtol=1e-15)

    def test_c_increment_is_2k(self):
        k = 0.37
        ch = lanczos_chain(30, eta=-1.0, k=k)
        np.testing.assert_allclose(np.diff(ch.c_mag), 2.0 * k, rtol=1e-14)

    def test_offdiagonal_positive(self):
        ch = lanczos_chain(12, eta=-0.2, k=0.3)
        assert np.all(np.asarray(ch.b[1:]) > 0)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            lanczos_chain(-1, eta=-1.0, k=1.0)

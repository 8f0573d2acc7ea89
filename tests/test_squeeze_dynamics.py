import math
import sys
import warnings

import numpy as np
import pytest

from sqspec import _integrators as eng
from sqspec import _rhs
from sqspec import squeeze_dynamics
from sqspec.background import CouplingCoefficients
from sqspec.config import _R_MAX, COUPLING_POWERS, FORMS, SweepConfig
from sqspec.pipeline import make_k_grid
from sqspec.squeeze_dynamics import (
    SqueezeState,
    StepBudgetError,
    StepSizeUnderflowError,
    evolve_grid,
    integrate,
    rhs,
    wrap_angle,
)

PI4 = math.pi / 4.0

# (k, r, phi) at x = 1 of the hamiltonian-consistent default seed (x = 100,
# r = 1e-6, phi = pi/4, conformal form): scipy Radau IIA on the full system,
# no fast path, rtol 1e-13 (its rtol 1e-12 and 1e-13 runs agree to 1.4e-14);
# phi is None where it was not recorded
RADAU_CONSISTENT = [
    (1e-4, 4.603398547768569, 1.5706963668511917),
    (0.010234114021054527, 4.424884144010295, 1.5607676620798865),
    (0.0196, 4.26199662362104, None),
    (0.03107866187782014, 4.065309642640683, 1.541487384591495),
    (0.05, 3.74867579070614, 1.52514453771141),
    (0.16446761779946645, 2.059151178919628, 1.4456167029421445),
    (0.41504047578504766, 0.05732451866052365, 1.5486042393400998),
    (0.8309941949353395, 0.00025504856442165906, 1.5705844818049413),
    (1.0, 9.999009962085652e-05, 1.5706963566839889),
]

# (coupling_power, x_end, k, r, phi) at the evaluation point of the default
# seed (x = 100, r = 1e-6, phi = pi/4, conformal form), where a slaved step
# can miss its hand-back or its lag exit: the rtol = 1e-13, atol = 1e-16 run
# of the engine that stepped ln r on the fast path, which scipy Radau IIA on
# the full system (rtol 1e-13) reproduces to 5.5e-13 relative in r and 7e-14
# in phi
FROZEN_TIGHT = [
    ("hamiltonian-consistent", 1.0, 0.31440354715915003, 0.474745461559066, 1.4632081364512626),
    ("hamiltonian-consistent", 1.0, 0.47686116977144694, 0.015144736520189776, 1.5637274196515578),
    ("literal", 0.01, 0.0006080224261649421, 0.05416949764350601, 1.5707635428542595),
    ("literal", 0.01, 0.05941133984965034, 4.870478440627058, 1.5678449961992715),
]


def _printed_transformed(r, phi, a, mu2):
    """(dr/deta, dphi/deta) of the paper's transformed form at mu2' = 0 for
    the closed-coupling factor a, written out independently of the package:
    r' = -tanh r (A cos 2 phi) / (tanh r + mu2)."""
    t = math.tanh(r)
    dr = -t * a * math.cos(2.0 * phi) / (t + mu2)
    bracket = a * t / (1.0 + mu2 * t) + 1.0 / t + mu2
    return dr, 0.5 * math.sin(2.0 * phi) * bracket - mu2


def _printed_conformal(r, phi, a, mu2):
    """(dr/deta, dphi/deta) of the paper's conformal form at mu2' = 0, written
    out independently of the package: r' = -A sinh 2r cos 2 phi / (sinh 2r +
    2 mu2 cosh^2 r)."""
    s2r = math.sinh(2.0 * r)
    dr = -a * s2r * math.cos(2.0 * phi) / (s2r + 2.0 * mu2 * math.cosh(r) ** 2)
    bracket = a * math.tanh(r) / (1.0 + mu2 * math.tanh(r)) + 1.0 / math.tanh(r) + mu2
    return dr, 0.5 * math.sin(2.0 * phi) * bracket - mu2


class TestRhsPointwise:
    def test_quarter_pi_is_fixed_point_of_r(self):
        # cos(2 phi) = 0 kills the only surviving numerator term at mu2' = 0
        cc = CouplingCoefficients(mu2=0.0, coupling=1.0)
        for r in (1e-6, 0.1, 2.0):
            state = SqueezeState(r=r, phi=PI4, x=3.0)
            dr, _ = rhs(state, 1.0, couplings=cc)
            assert abs(dr) < 1e-12

    def test_large_r_saturation(self):
        # sinh 2r / (sinh 2r + ...) -> 1 at mu2 = 0
        cc = CouplingCoefficients(mu2=0.0, coupling=1.0)
        state = SqueezeState(r=25.0, phi=0.4, x=2.0)
        dr, _ = rhs(state, 1.0, couplings=cc)
        assert dr == pytest.approx(-1.0 * math.cos(0.8), rel=1e-10)
        state_t = SqueezeState(r=40.0, phi=0.0, x=2.0)
        dr_t, _ = rhs(state_t, 1.0, couplings=cc)
        assert dr_t == pytest.approx(-1.0, rel=1e-12)

    def test_conformal_frozen_oracle(self):
        # independent 50-digit evaluation of the printed expressions at
        # r=1, phi=0.3, eta=-1, k=1, M_P=1 (A = 1, mu2 = 1)
        state = SqueezeState(r=1.0, phi=0.3, x=1.0)
        dr, dp = rhs(state, 1.0)
        assert dr == pytest.approx(-0.35681929285030654, rel=1e-14)
        assert dp == pytest.approx(-0.22492441159015873, rel=1e-14)

    def test_transformed_frozen_oracle(self):
        # independent 50-digit evaluation of the printed transformed form at
        # r=0.5, phi=1.0, mu2=0.2, |1-mu1^2| = 4 (coupling 2), M_P=1; the
        # conformal form that sqspec evaluates is the same expression
        cc = CouplingCoefficients(mu2=0.2, coupling=2.0)
        state = SqueezeState(r=0.5, phi=1.0, x=1.0)
        dr, dp = rhs(state, 1.0, couplings=cc)
        assert dr == pytest.approx(1.1617798511896459, rel=1e-14)
        assert dp == pytest.approx(1.6440707015465308, rel=1e-14)

    def test_conformal_equals_transformed(self):
        # the two printed forms are algebraically identical; sqspec evaluates
        # the transformed one, and the test-local reference the conformal one
        # (r <= 4, where sinh 2r cannot overflow)
        rng = np.random.RandomState(11)
        for _ in range(200):
            state = SqueezeState(
                r=rng.uniform(1e-5, 4.0),
                phi=rng.uniform(-3.0, 3.0),
                x=rng.uniform(0.05, 50.0),
            )
            cc = CouplingCoefficients(
                mu2=rng.uniform(0.0, 2.0),
                coupling=rng.uniform(0.01, 3.0),
            )
            a = rhs(state, 1.0, couplings=cc)
            b = _printed_conformal(state.r, state.phi, cc.coupling**2, cc.mu2)
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_r_rate_finite_at_the_r_edge(self):
        # A sinh 2r passes the double range near r = 354, while the ratio
        # tanh r / (tanh r + mu2) has long saturated: the rate at r = 354 is
        # the one at r = 340
        cc = CouplingCoefficients(mu2=0.5, coupling=10.0)
        edge = rhs(SqueezeState(r=354.0, phi=0.3, x=1.0), 1.0, couplings=cc)[0]
        inner = rhs(SqueezeState(r=340.0, phi=0.3, x=1.0), 1.0, couplings=cc)[0]
        assert inner == pytest.approx(-55.0224, abs=1e-4)
        assert edge == pytest.approx(inner, rel=1e-12)

    def test_closed_reference_is_analytic_limit(self):
        # closed-reference is the printed flow at mu2 = 0, whatever the
        # couplings' mu2: the test-local transformed form at r = 0.9, and at
        # r = 0, where either printed r rate is 0/0, its limit -A cos 2 phi,
        # with an unbounded angle rate
        cc = CouplingCoefficients(mu2=0.8, coupling=0.7)
        phi = 1.1
        got = rhs(SqueezeState(r=0.9, phi=phi, x=4.0), 1.0, couplings=cc, form="closed-reference")
        np.testing.assert_allclose(got, _printed_transformed(0.9, phi, 0.7 * 0.7, 0.0), rtol=1e-14)
        dr, dp = rhs(SqueezeState(r=0.0, phi=phi, x=4.0), 1.0, couplings=cc, form="closed-reference")
        assert dr == pytest.approx(-0.7 * 0.7 * math.cos(2.0 * phi), rel=1e-15)
        assert dp == math.inf

    def test_coupling_power_modes_differ(self):
        state = SqueezeState(r=0.5, phi=0.3, x=10.0)
        lit = rhs(state, 0.5, coupling_power="literal")
        ham = rhs(state, 0.5, coupling_power="hamiltonian-consistent")
        assert lit[0] != ham[0]

    def test_zero_coupling_freezes_r(self):
        # with the coupling and mu2' both zero the r equation vanishes
        # identically, whatever r, phi and mu2
        rng = np.random.RandomState(5)
        for _ in range(100):
            state = SqueezeState(
                r=rng.uniform(1e-6, 4.0), phi=rng.uniform(-3.0, 3.0), x=2.0
            )
            cc = CouplingCoefficients(mu2=rng.uniform(0.0, 2.0), coupling=0.0)
            assert rhs(state, 1.0, couplings=cc)[0] == 0.0

    def test_singular_angle_term_is_not_a_crash(self):
        # r = 0 with sin(2 phi) != 0: the angle rate is unbounded but must
        # come back as a value, not an exception
        state = SqueezeState(r=0.0, phi=0.3, x=2.0)
        dr, dp = rhs(state, 1.0)
        assert dr == 0.0
        assert math.isinf(dp)

    @pytest.mark.parametrize("form", FORMS)
    def test_angle_past_half_double_range_is_nan(self, form):
        # 2 phi overflows past DBL_MAX/2: NaN, as for a non-finite angle,
        # not a math domain error from cos(inf)
        half = 0.5 * sys.float_info.max
        for phi in (1e308, -1e308, math.nextafter(half, math.inf)):
            dr, dp = rhs(SqueezeState(r=0.5, phi=phi, x=1.0), 1.0, form=form)
            assert math.isnan(dr) and math.isnan(dp)
        assert all(map(math.isfinite, rhs(SqueezeState(r=0.5, phi=half, x=1.0), 1.0, form=form)))

    def test_unknown_names_raise(self):
        state = SqueezeState(r=0.5, phi=0.3, x=1.0)
        with pytest.raises(ValueError, match=r"unknown form 'transformed'.*closed-reference.*conformal"):
            rhs(state, 1.0, form="transformed")
        with pytest.raises(ValueError, match=r"unknown coupling_power 'nope'.*hamiltonian-consistent.*literal"):
            rhs(state, 1.0, coupling_power="nope")


_STATE = SqueezeState(r=0.5, phi=0.3, x=2.0)


@pytest.mark.parametrize(
    "call,match",
    [
        # rhs checks k where it forms the default couplings
        (lambda: rhs(_STATE, 0.0), "k=0.0$"),
        (lambda: rhs(_STATE, -1.0), "k=-1.0$"),
        (lambda: rhs(_STATE, math.nan), "k=nan$"),
        (lambda: rhs(_STATE, math.inf), "k=inf$"),
        (lambda: integrate(-1.0, 5.0, 0.5), "k=-1.0$"),
        (lambda: integrate(1.0, 5.0, 0.5, h_fixed=0.0), "^h_fixed must be > 0, got 0.0$"),
        (lambda: integrate(1.0, 5.0, 0.5, h_fixed=-1e-3), "^h_fixed must be > 0, got -0.001$"),
        # a step count that is not finite, or past the RK4 driver's cap
        (lambda: integrate(1.0, 5.0, 0.5, h_fixed=5e-324), "^h_fixed=5e-324 asks for inf RK4 steps"),
        (lambda: integrate(1.0, 5.0, 0.5, h_fixed=1e-12), "^h_fixed=1e-12 asks for 4.5e\\+12 RK4 steps"),
        (lambda: integrate(1.0, 5.0, 0.5, samples=[6.0]), "^sample points must lie within"),
        # a NaN budget would never run out, and a negative one at the first step
        (lambda: integrate(1.0, 5.0, 0.5, max_steps=math.nan), "^max_steps must be >= 0, got nan$"),
        (lambda: integrate(1.0, 5.0, 0.5, max_steps=-1), "^max_steps must be >= 0, got -1$"),
        (lambda: evolve_grid([0.0, 1.0], SweepConfig()), "^k grid must be positive"),
        (lambda: evolve_grid([math.nan, 1.0], SweepConfig()), "^k grid must be positive"),
    ],
)
def test_bad_argument_named(call, match):
    # a bad number is a ValueError that names it, not a ZeroDivisionError,
    # a NaN or a complaint about a derived eta
    with pytest.raises(ValueError, match=match):
        call()


class TestSqueezeState:
    @pytest.mark.parametrize(
        "r,phi", [(math.nan, 0.3), (math.inf, 0.3), (0.3, math.nan), (0.3, math.inf)]
    )
    def test_non_finite_rejected(self, r, phi):
        with pytest.raises(ValueError, match="must be finite"):
            SqueezeState(r=r, phi=phi, x=1.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_time_stamp_rejected(self, x):
        with pytest.raises(ValueError, match="time stamp"):
            SqueezeState(r=0.1, phi=0.2, x=x)


@pytest.fixture
def driven(monkeypatch):
    """What the engine's drivers return, in call order: adaptive runs give
    (x, r, phi, stats) and RK4 runs (r, phi, stats, bad)."""
    returns = []
    for name in ("_drive_adaptive", "_drive_rk4"):
        def spy(*args, drive=getattr(eng, name)):
            returns.append(drive(*args))
            return returns[-1]

        monkeypatch.setattr(eng, name, spy)
    return returns


class TestIntegrate:
    def test_dual_integrator_agreement(self):
        ref = integrate(0.8, 5.0, 0.5, init=(0.05, PI4), samples=[5.0, 0.5])
        fix = integrate(
            0.8, 5.0, 0.5, init=(0.05, PI4), samples=[5.0, 0.5], h_fixed=1e-3,
        )
        assert abs(ref.r[-1] - fix.r[-1]) < 1e-8
        assert abs(ref.phi[-1] - fix.phi[-1]) < 1e-8

    def test_fixed_step_order_four(self):
        ref = integrate(
            0.8, 5.0, 0.5, init=(0.05, PI4), samples=[5.0, 0.5],
            rtol=1e-13, atol=1e-13,
        ).state_at(0.5)
        errs = []
        for h in (0.02, 0.01, 0.005, 0.0025):
            end = integrate(
                0.8, 5.0, 0.5, init=(0.05, PI4), samples=[5.0, 0.5], h_fixed=h,
            ).state_at(0.5)
            errs.append(max(abs(end.r - ref.r), abs(end.phi - ref.phi)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.5) and np.all(orders < 4.5)

    @pytest.mark.parametrize(
        "k,r1,phi1,rend",
        [
            # frozen reference values from a stiff multistep integrator
            # (LSODA, rtol 3e-13, atol 1e-15) on the default configuration
            (1e-4, 2.647266164373679e-06, 1.57079632653017, 0.009088521883382855),
            (0.05, 2.691143801220748e-06, 1.5707961922377425, 4.135726438122061),
            (1.0, 2.6912302755608675e-06, 1.5707936355791066, 43.43111840013585),
        ],
    )
    def test_stiff_window_against_frozen_reference(self, k, r1, phi1, rend):
        traj = integrate(k, 100.0, 0.01, samples=[100.0, 1.0, 0.01])
        s1 = traj.state_at(1.0)
        assert abs(s1.r - r1) < 2e-9
        assert abs(s1.phi - phi1) < 1e-9
        assert traj.state_at(0.01).r == pytest.approx(rend, rel=1e-5)

    @pytest.mark.parametrize(
        "power,x_end,k,r_ref,phi_ref,bound",
        [
            ("literal", 1.0, 1e-4, 2.6472658212263777e-06, None, 1e-9),
            ("literal", 1.0, 1.0, 2.6912299206507257e-06, None, 1e-9),
            ("literal", 0.01, 0.025826187606826773, 2.1870171253247825, None, 1e-9),
            ("literal", 0.01, 1.0, 43.43111832109367, None, 1e-9),
            *(("hamiltonian-consistent", 1.0, *point, 1e-9) for point in RADAU_CONSISTENT),
        ],
    )
    def test_default_tolerance_against_radau(self, power, x_end, k, r_ref, phi_ref, bound):
        # rtol is relative in r: the default run lands on an independent
        # stiff reference at its evaluation point
        traj = integrate(k, 100.0, x_end, coupling_power=power, samples=[100.0, x_end])
        assert abs(traj.r[-1] - r_ref) <= bound * r_ref
        if phi_ref is not None:
            assert abs(traj.phi[-1] - phi_ref) <= 1e-9

    def test_tight_tolerance_against_radau(self):
        # at rtol = atol = 1e-13 the consistent fast path, its layer and its
        # hand-back carry no bias above 1e-11 against the reference
        for k, r_ref, phi_ref in RADAU_CONSISTENT:
            end = integrate(
                k, 100.0, 1.0, coupling_power="hamiltonian-consistent",
                samples=[100.0, 1.0], rtol=1e-13, atol=1e-13,
            ).state_at(1.0)
            assert abs(end.r - r_ref) <= 1e-11 * r_ref
            if phi_ref is not None:
                assert abs(end.phi - phi_ref) <= 1e-11

    def test_singularity_seed_never_non_finite(self):
        traj = integrate(0.1, 20.0, 0.5, init=(1e-8, PI4))
        assert all(map(math.isfinite, traj.r + traj.phi))

    def test_finite_and_subcap_through_crossing(self):
        for k in (1e-4, 0.05, 1.0):
            traj = integrate(k, 100.0, 0.01)
            assert all(map(math.isfinite, traj.r))
            assert all(r < 30.0 for x, r in zip(traj.x, traj.r) if x >= 1.0)

    def test_determinism_bitwise(self):
        a = integrate(0.3, 50.0, 0.05)
        b = integrate(0.3, 50.0, 0.05)
        assert (a.x, a.r, a.phi) == (b.x, b.r, b.phi)

    def test_state_at_only_at_checkpoints(self):
        traj = integrate(0.7, 30.0, 0.2, samples=[30.0, 0.2])
        assert traj.state_at(1.0).x == 1.0
        with pytest.raises(KeyError, match="no sample recorded at x=2.0"):
            traj.state_at(2.0)

    def test_sample_structure(self):
        traj = integrate(0.7, 30.0, 0.2, samples=24)
        x = traj.x
        assert x[0] == 30.0 and x[-1] == 0.2
        assert np.all(np.diff(x) < 0)
        assert 1.0 in x  # horizon crossing always recorded
        assert traj.r[0] == 1e-6 and traj.phi[0] == PI4

    def test_grid_wider_than_the_exponent_range(self):
        # x_end / x_start = 1e-330 underflows to 0, but no interior point may
        grid = squeeze_dynamics._sample_grid(1e10, 1e-320, 5)
        assert len(grid) == 6 and grid[0] == 1e10 and grid[-1] == 1e-320
        assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_cap_flag_of_either_driver(self, driven):
        # r passing 30 is counted in the stats of either driver, and the
        # run warns about nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adaptive = integrate(1.0, 100.0, 0.01)
            fixed = integrate(1.0, 2.0, 0.01, init=(1.0, PI4), h_fixed=1e-3)
            below = integrate(1.0, 100.0, 1.0)
        assert adaptive.integrator_stats.capped and fixed.integrator_stats.capped
        assert max(adaptive.r) > 30.0 and max(fixed.r) > 30.0
        assert not below.integrator_stats.capped
        # each driver builds the record that integrate hands on
        (*_, a_stats), (_, _, f_stats, bad), (*_, b_stats) = driven
        assert type(a_stats) is type(f_stats) is type(b_stats) is eng.IntegratorStats
        assert a_stats == adaptive.integrator_stats and b_stats == below.integrator_stats
        assert f_stats == fixed.integrator_stats and bad is None
        assert f_stats.n_steps == 2003
        assert (a_stats.status, b_stats.status, f_stats.status) == ("ok",) * 3

    def test_capped_run_that_fails_keeps_its_flag(self, driven):
        # input 735 of tools/compare_integrate.py seed 0: r passes 30 and
        # then runs into the edge of the double range, so the run ends in a
        # typed failure whose partial trajectory is flagged
        with pytest.raises(StepSizeUnderflowError, match="edge of the double range") as excinfo:
            integrate(
                57.027917281341146, 7.974955003429399, 0.07505771290865032,
                init=(0.44372185245306833, 7.6258565632608395),
                form="closed-reference", rtol=2.94720111842274e-05,
                atol=2.399188928214201e-05, max_steps=20_000, samples=[3.476564692951843],
            )
        stats = excinfo.value.trajectory.integrator_stats
        assert stats.capped and stats.status == "step-underflow"
        ((*_, returned),) = driven
        assert type(returned) is eng.IntegratorStats and returned == stats

    def test_underflow_diagnostic_keeps_last_state(self):
        with pytest.raises(StepSizeUnderflowError) as excinfo:
            integrate(0.5, 10.0, 1.0, init=(0.0, 0.3), max_steps=100000)
        traj = excinfo.value.trajectory
        assert len(traj.x) >= 1
        assert traj.integrator_stats.status == "step-underflow"

    def test_underflow_names_its_cause(self, driven):
        # ln r meets r = 0 only at a seed there, which fails before any
        # attempt; a stiff window too short for the fast path underflows
        # with r untouched and is not blamed on r = 0
        with pytest.raises(StepSizeUnderflowError, match="seed r = 0") as excinfo:
            integrate(0.5, 10.0, 1.0, init=(0.0, 0.3))
        stats = excinfo.value.trajectory.integrator_stats
        assert stats.n_steps + stats.n_rejected == 0
        assert driven[0][3] == stats == eng.IntegratorStats(0, status="step-underflow")
        with pytest.raises(StepSizeUnderflowError, match="stiff window") as excinfo:
            integrate(1e-6, 10.0, 10.0 - 1e-12, init=(1e-9, PI4))
        assert "r = 0" not in str(excinfo.value)

    def test_step_budget_keeps_partial_trajectory(self, driven):
        with pytest.raises(StepBudgetError) as excinfo:
            integrate(0.5, 10.0, 1.0, max_steps=5)
        traj = excinfo.value.trajectory
        assert traj.integrator_stats.status == "max-steps"
        assert traj.x[0] == 10.0
        assert 1.0 < traj.x[-1] < 10.0
        assert all(map(math.isfinite, traj.r + traj.phi))
        assert driven[-1][3] == traj.integrator_stats
        # a budget that runs out after r passed 30 keeps the flag
        with pytest.raises(StepBudgetError) as excinfo:
            integrate(1.0, 100.0, 0.01, max_steps=240)
        stats = excinfo.value.trajectory.integrator_stats
        assert stats.capped and stats.status == "max-steps"
        assert driven[-1][3] == stats and stats.n_steps + stats.n_rejected == 241
        # with no checkpoint inside the span, the seed and then the point
        # where the budget ran out (with consistent coupling at k = 1e-4 the
        # span takes 8 attempts, 2 of them accepted after the first 5)
        with pytest.raises(StepBudgetError) as excinfo:
            integrate(
                1e-4, 10.0, 1.0, coupling_power="hamiltonian-consistent",
                samples=[10.0, 1.0], max_steps=4,
            )
        traj = excinfo.value.trajectory
        assert traj.x[0] == 10.0 and len(traj.x) == 2
        assert 1.0 < traj.x[-1] < 10.0
        for values in (traj.x, traj.r, traj.phi):
            assert type(values) is tuple
            assert all(type(v) is float and math.isfinite(v) for v in values)

    def test_validation(self):
        with pytest.raises(ValueError, match="x_start"):
            integrate(1.0, 0.5, 2.0)
        with pytest.raises(ValueError, match="form"):
            integrate(1.0, 5.0, 0.5, form="nope")
        # the transformed form is the conformal one printed differently, and
        # it is not a separate form
        with pytest.raises(ValueError, match=r"unknown form 'transformed'.*closed-reference.*conformal"):
            integrate(1.0, 5.0, 0.5, form="transformed")
        with pytest.raises(ValueError, match="tolerances"):
            integrate(1.0, 5.0, 0.5, rtol=0.0)
        for r0 in (-1e-300, math.nextafter(_R_MAX, math.inf)):
            with pytest.raises(ValueError, match="^init r must lie in"):
                integrate(1.0, 5.0, 0.5, init=(r0, PI4))

    @pytest.mark.parametrize("h_fixed", [None, 1e-3])
    def test_seed_angle_past_half_double_range(self, h_fixed):
        # its 2 phi overflows, so the seed is refused before the first stage
        half = 0.5 * sys.float_info.max
        for phi0 in (1e308, -1e308, math.nextafter(half, math.inf)):
            with pytest.raises(ValueError, match="^init phi must lie within"):
                integrate(1.0, 5.0, 0.5, init=(0.05, phi0), h_fixed=h_fixed)

    def test_stage_scale_past_double_range(self):
        # each stage is scaled by x^2/k, which overflows at k = 1 between
        # x_start = 1.3e154 and 1.35e154
        assert integrate(1.0, 1.3e154, 1.0).integrator_stats.status == "ok"
        for x_start in (1.35e154, 1e170):
            with pytest.raises(ValueError, match=r"^x_start\^2/k must be finite"):
                integrate(1.0, x_start, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name",
        [
            "k", "x_start", "x_end", "rtol", "atol", "h_fixed", "init r",
            "init phi", "samples",
        ],
    )
    def test_non_finite_argument_named(self, name, bad):
        kwargs = dict(k=0.5, x_start=10.0, x_end=1.0)
        if name == "init r":
            kwargs["init"] = (bad, PI4)
        elif name == "init phi":
            kwargs["init"] = (1e-3, bad)
        elif name == "samples":
            kwargs["samples"] = [5.0, bad]
        else:
            kwargs[name] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            integrate(**kwargs)

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            # r steps below 0 ...
            (
                (0.6737, 12.18, 0.0113),
                dict(init=(1.22e-4, 5.619), h_fixed=0.7608, form="closed-reference"),
            ),
            # ... or overflows ...
            (
                (977.2526736521054, 27.323547704854725, 0.03828269033793334),
                dict(
                    init=(0.9053720399273701, -5.615357814050393),
                    h_fixed=0.8526645317036498, form="closed-reference",
                ),
            ),
            # ... or a stage overflows sinh 2r (r = 355.6 at x = 0.0155)
            ((1.0, 0.02, 0.002), dict(init=(350.0, math.pi / 2), h_fixed=0.01, samples=[0.02])),
        ],
    )
    def test_coarse_fixed_step_is_named(self, args, kwargs, driven):
        # the RK4 cross-validator stops where the adaptive guard would reject
        with pytest.raises(ValueError, match=r"^h_fixed=.* from x=\S+ \(r=\S+\)") as excinfo:
            integrate(*args, **kwargs)
        # the driver counts the steps taken before the stop (the second
        # input passed r = 30 on the way) and names where the bad one
        # started, in each input the last checkpoint reached
        ((out_r, _, stats, (x_bad, r_bad)),) = driven
        n_steps, capped, x_stop = {
            0.6737: (10, False, 5.7253495626078985),
            977.2526736521054: (37, True, 1.9729824984529634),
            1.0: (0, False, 0.02),
        }[args[0]]
        assert stats == eng.IntegratorStats(n_steps, capped=capped)
        assert (x_bad, r_bad) == (x_stop, out_r[-1])
        assert f" from x={x_bad:.6g} (r={r_bad:.6g}) " in str(excinfo.value)

    def test_init_r_at_double_range_edge(self):
        # the largest valid seed evaluates without overflow; r grows from
        # there, so the run ends at once as an underflow that names the edge
        with pytest.raises(StepSizeUnderflowError, match="double range") as excinfo:
            integrate(0.5, 10.0, 1.0, init=(_R_MAX, PI4))
        stats = excinfo.value.trajectory.integrator_stats
        assert stats.n_steps + stats.n_rejected <= 200

    @pytest.mark.parametrize("k", [100.0, 316.0, 1000.0])
    def test_walk_into_r_zero_fails_fast(self, k):
        # the closed form's dr/deta is finite at r = 0 and the angle sits on
        # the repelling branch, so ln r falls to -inf in finite tau; the run
        # ends where r = 0 is within 16 ulps of tau at its current rate
        with pytest.raises(StepSizeUnderflowError, match="r = 0") as excinfo:
            integrate(
                k, 2.5, 1.0, init=(1e-6, 0.0), form="closed-reference",
                coupling_power="hamiltonian-consistent",
            )
        stats = excinfo.value.trajectory.integrator_stats
        assert stats.n_steps + stats.n_rejected <= 500

    def test_closed_reference_oracle_convergence(self):
        # the dissipation-free form approximates the open flow to first
        # order in mu2 = k: halving k halves the angle deviation and
        # quarters the amplitude deviation
        devs = []
        for k in (1e-3, 5e-4, 2.5e-4):
            op = integrate(k, 5.0, 0.5, init=(0.2, PI4), samples=[5.0, 0.5])
            cl = integrate(
                k, 5.0, 0.5, init=(0.2, PI4), form="closed-reference",
                samples=[5.0, 0.5],
            )
            devs.append(
                (
                    abs(op.r[-1] - cl.r[-1]),
                    abs(op.phi[-1] - cl.phi[-1]),
                )
            )
        for (r1, p1), (r2, p2) in zip(devs, devs[1:]):
            assert 0.45 <= p2 / p1 <= 0.55
            assert 0.20 <= r2 / r1 <= 0.30

    def test_stiff_bypass_matches_plain_where_affordable(self, monkeypatch):
        # non-stiff window (slack ~ 300 relaxation lengths): the fast path is
        # not engaged, so every stage after the seed's entry probe is a plain
        # full-system evaluation
        flags = _spy_stages(monkeypatch)
        traj = integrate(0.8, 5.0, 0.5, init=(0.05, PI4))
        assert traj.integrator_stats.n_slaved_steps == 0
        assert flags[0] and len(flags) > 1 and not any(flags[1:])


def _stage_at(x, r, phi, *args):
    """The adaptive driver's full-system stage at (x, r): (du/dtau,
    dphi/dtau) at tau = -1/x, u = ln r."""
    return _rhs._stage(-1.0 / x, math.log(r), phi, *args)


def _slaved_at(x, r, k, power, mu2):
    """The adaptive driver's slaved stage at (x, r): (dw/dtau, sin 2phi~,
    delta1, B, s, d delta1/dx) at tau = -1/x, u = ln r."""
    return _rhs._slaved_stage(-1.0 / x, math.log(r), k, power, mu2)


def _mu2(form, k):
    """The mu2 that integrate() runs a form at: k, or 0 for closed-reference."""
    return k if form == "conformal" else 0.0


def _w_per_r(r, mu2):
    """dw/dr of the slaved regime's variable w = r + mu2 ln sinh r."""
    return 1.0 + mu2 / math.tanh(r)


def _spy_stages(monkeypatch):
    """Record, per stage evaluation of the adaptive driver, whether it was
    the slaved stage (True) or the full system (False)."""
    flags = []

    def spy(name, slaved):
        stage = getattr(eng, name)

        def wrapper(*args):
            flags.append(slaved)
            return stage(*args)

        monkeypatch.setattr(eng, name, wrapper)

    spy("_stage", False)
    spy("_slaved_stage", True)
    return flags


class TestFullStage:
    """The full-system stage inlines _flow, so a stage is one Python call; it
    must agree with _flow through du/dtau = -(x^2/k) (dr/deta) / r and
    dphi/dtau = -(x^2/k) dphi/deta."""

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("power", COUPLING_POWERS)
    @pytest.mark.parametrize("r", [1e-8, 3e-5, 0.2, 5.0, 300.0])  # 3e-5: the Laurent coth
    def test_matches_flow(self, r, power, form):
        x, k, phi = 3.0, 0.05, 1.3
        mu2 = _mu2(form, k)
        dudtau, dpdtau = _stage_at(x, r, phi, k, power, mu2)
        r = math.exp(math.log(r))  # the r the stage sees
        drdeta, dpdeta = _rhs._flow(r, phi, k / x, mu2, power)
        assert dudtau == pytest.approx(-(x * x / k) * drdeta / r, rel=1e-14)
        assert dpdtau == pytest.approx(-(x * x / k) * dpdeta, rel=1e-14)

    @pytest.mark.parametrize("power", COUPLING_POWERS)
    def test_finite_at_the_r_edge(self, power):
        # at x = 0.05, k = 1, A' is 400 (literal) or 20 (consistent), past the
        # 12 where A' sinh 2r would leave the double range at r = 354
        x, k = 0.05, 1.0
        lam = k / x
        assert (lam * lam if power == "literal" else lam) > 12.0
        assert all(map(math.isfinite, _rhs._stage(-1.0 / x, math.log(354.0), 0.3, k, power, k)))


# (x, r, k) on the branch, from deep inside the horizon to r = 4
_SLAVED_POINTS = [
    (100.0, 1e-6, 0.05), (1.0, 2.7e-6, 1e-4), (3.0, 5e-5, 0.7), (0.5, 0.3, 0.2), (0.02, 4.0, 1.0),
]


class TestSlavedBranch:
    """The slaved stage holds the angle on the slow manifold phi~ and takes
    dw/deta from it, w = r + mu2 ln sinh r; it must agree with the full
    right-hand side at the angle it reports."""

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("power", COUPLING_POWERS)
    @pytest.mark.parametrize("x,r,k", _SLAVED_POINTS)
    def test_matches_rhs_at_attractor(self, form, power, x, r, k):
        mu2 = _mu2(form, k)
        fast, s2p, _, _, s, _, _ = _slaved_at(x, r, k, power, mu2)
        assert 0.0 <= s < 0.99
        phi = _rhs._attractor_phi(s2p, math.pi / 2)
        full = _stage_at(x, r, phi, k, power, mu2)[0]  # du/dtau
        assert fast == pytest.approx(full * r * _w_per_r(r, mu2), rel=1e-13)

    @pytest.mark.parametrize("power", COUPLING_POWERS)
    @pytest.mark.parametrize("x,r,k", _SLAVED_POINTS)
    def test_matches_printed_transformed_form(self, power, x, r, k):
        # the slaved stage inlines its own copy of r' as dw/deta; the printed
        # transformed form, written out by the test, must agree with it
        fast, s2p, _, _, s, _, _ = _slaved_at(x, r, k, power, k)
        assert 0.0 <= s < 0.99
        phi = _rhs._attractor_phi(s2p, math.pi / 2)
        lam = k / x
        drdeta = _printed_transformed(r, phi, lam * lam if power == "literal" else lam, k)[0]
        dwdeta = drdeta * _w_per_r(r, k)
        assert fast == pytest.approx(-x * x / k * dwdeta, rel=1e-13)

    @pytest.mark.parametrize("power", COUPLING_POWERS)
    @pytest.mark.parametrize("x,r,k", _SLAVED_POINTS)
    def test_no_slow_manifold_terms_at_zero_mu2(self, power, x, r, k):
        # at mu2 = 0 the branch is sin 2 phi* = 0 and both delta terms vanish
        # exactly, so dw/dtau = dr/dtau = -A' / (k tau^2)
        dw, s2p, d1, _, s, dd1, _ = _slaved_at(x, r, k, power, 0.0)
        assert (s2p, d1, s, dd1) == (0.0, 0.0, 0.0, 0.0)
        tau = -1.0 / x
        lam = -k * tau
        assert dw == -(lam * lam if power == "literal" else lam) / (k * tau * tau)

    @pytest.mark.parametrize("form", FORMS)
    def test_first_order_term_matches_a_difference(self, form):
        # delta1 = (dphi*/dx) / nu, nu = B c / k, is formed from dB/dx in closed form; a
        # central difference of phi* along the zeroth-order flow must agree
        k, x, r, power = 0.05, 3.0, 0.02, "hamiltonian-consistent"
        mu2 = _mu2(form, k)
        dw, _, d1, bracket, s, _, _ = _slaved_at(x, r, k, power, mu2)
        c = math.sqrt(1.0 - s * s)
        drdx = dw / _w_per_r(r, mu2) / (x * x)  # dr/dtau = x^2 dr/dx
        eps = 1e-5

        def phi_star(xx):
            s_at = _slaved_at(xx, r + (xx - x) * drdx, k, power, mu2)[4]
            return 0.5 * (math.pi - math.asin(s_at))

        dphi = (phi_star(x + eps) - phi_star(x - eps)) / (2.0 * eps)
        assert d1 == pytest.approx(dphi / (bracket * c / k), rel=1e-6, abs=1e-300)
        assert (d1 == 0.0) == (form == "closed-reference")

    @pytest.mark.parametrize("power", COUPLING_POWERS)
    @pytest.mark.parametrize("x,r,k", _SLAVED_POINTS)
    def test_second_order_term_matches_a_difference(self, power, x, r, k):
        # delta2 = (d delta1/dx) / nu takes d delta1/dx in closed form, from
        # d^2 B/dx^2 along the zeroth-order flow d ln r/dx = -g c / (k r), g =
        # A' tanh r / (tanh r + k); a central difference of delta1 along that
        # flow must agree (ln r varies as steeply as x^(-1/k), so the
        # difference is narrow in both x and ln r)
        u = math.log(r)
        *_, s, dd1, dudx_stage = _slaved_at(x, r, k, power, k)
        lam = k / x
        t = math.tanh(r)
        dudx = -(lam * lam if power == "literal" else lam) * t / (t + k) * math.sqrt(1.0 - s * s) / (k * r)
        eps = 1e-5 * x / max(1.0, abs(x * dudx))

        def delta1(xx, uu):
            return _rhs._slaved_stage(-1.0 / xx, uu, k, power, k)[2]

        diff = (delta1(x + eps, u + eps * dudx) - delta1(x - eps, u - eps * dudx)) / (2.0 * eps)
        assert dd1 == pytest.approx(diff, rel=1e-7)
        # the stage returns that flow, which _lag steps along
        assert dudx_stage == pytest.approx(dudx, rel=1e-14)

    def test_attractor_angle_nearest_the_anchor(self):
        # sin(2 phi*) = s on the attracting branch (cos(2 phi*) < 0), on the
        # copy mod pi nearest the anchor
        for s in (0.0, 0.3, 0.98):
            for anchor in (-4.0, 0.4, math.pi / 2, 7.0):
                phi = _rhs._attractor_phi(s, anchor)
                assert math.sin(2.0 * phi) == pytest.approx(s, abs=1e-14)
                assert math.cos(2.0 * phi) < 0.0
                assert abs(phi - anchor) <= math.pi / 2 + 1e-12

    def test_slaved_stage_off_the_branch_is_nan(self):
        # at x = 10, r = 3, k = 10 the bracket is ~11.1, so sin(2 phi*) =
        # 2 mu2 / B ~ 1.8: no fixed point, and the stage is rejected
        dw, _, _, _, s, _, dudx = _slaved_at(10.0, 3.0, 10.0, "literal", 10.0)
        assert s > 1.0
        assert math.isnan(dw) and math.isnan(dudx)

    def test_non_finite_angle_gives_nan(self):
        # a stage angle driven to inf through coth(0) must be rejected, not raise
        derivs = _rhs._flow(1e-6, math.inf, 1.0, 0.1, "literal")[:2]
        assert all(math.isnan(v) for v in derivs)


class TestSlavedExit:
    """The fast path is left when its adiabatic error exceeds rtol, or
    200 relaxation lengths before the last checkpoint, whichever is first."""

    @pytest.mark.parametrize(
        "power,x_end", [("literal", 0.01), ("hamiltonian-consistent", 1.0)]
    )
    def test_no_stiff_walk_to_the_evaluation_point(self, power, x_end):
        # walking the last 4000 relaxation lengths with the full system
        # costs ~1000 attempts here; staying on the branch costs 3 (literal)
        # and 15 (consistent)
        traj = integrate(
            1e-4, 100.0, x_end, coupling_power=power, samples=[100.0, x_end]
        )
        stats = traj.integrator_stats
        assert stats.n_steps + stats.n_rejected <= 22

    @pytest.mark.parametrize("k", [1e-4, 3.49e-4, 0.0374, 0.4, 0.69])
    @pytest.mark.parametrize(
        "power,x_end,r_bound,phi_bound",
        [("literal", 0.01, 2e-6, 3e-9), ("hamiltonian-consistent", 1.0, 7e-6, 3e-7)],
    )
    def test_accuracy_against_tight_run(self, k, power, x_end, r_bound, phi_bound):
        # bounds: the largest default-grid deviations of a run that walks the
        # last 4000 relaxation lengths with the full system; k = 3.49e-4
        # fails when the hand-back is too short, k = 0.69 (consistent) when
        # the fast path ignores its lag error
        kwargs = dict(coupling_power=power, samples=[100.0, x_end])
        got = integrate(k, 100.0, x_end, **kwargs).state_at(x_end)
        ref = integrate(k, 100.0, x_end, rtol=1e-13, atol=1e-16, **kwargs).state_at(x_end)
        assert abs(got.r - ref.r) <= r_bound * ref.r
        assert abs(got.phi - ref.phi) <= phi_bound

    @pytest.mark.parametrize("power,x_end,k,r_ref,phi_ref", FROZEN_TIGHT)
    def test_default_run_against_frozen_tight_values(self, power, x_end, k, r_ref, phi_ref):
        # a tight run of the same engine shares any model error of the slow
        # manifold; frozen values do not: 10 rtol in r and 2 units of
        # atol + rtol |phi| in phi at the default tolerances (1e-10)
        end = integrate(k, 100.0, x_end, coupling_power=power, samples=[100.0, x_end]).state_at(x_end)
        assert abs(end.r - r_ref) <= 10 * 1e-10 * r_ref
        assert abs(end.phi - phi_ref) <= 2 * (1e-10 + 1e-10 * abs(phi_ref))

    def test_closed_reference_stays_until_hand_back(self, monkeypatch):
        # the closed form has no lag term, so only the hand-back ends the
        # fast path: the stiff budget (entry only) cannot change the result,
        # and at most the last 200 relaxation lengths take full-system steps
        runs = []
        for budget in (4000.0, 1e5):
            monkeypatch.setattr(eng, "_STIFF_BUDGET", budget)
            runs.append(
                integrate(
                    1e-4, 100.0, 0.01, init=(1e-6, math.pi / 2),
                    form="closed-reference", samples=[100.0, 0.01],
                )
            )
        assert (runs[0].x, runs[0].r, runs[0].phi) == (runs[1].x, runs[1].r, runs[1].phi)
        stats = runs[0].integrator_stats
        assert stats.n_slaved_steps > 0
        assert stats.n_steps - stats.n_slaved_steps <= 100


class TestSeededLayer:
    """Where the fast path is entered the angle starts on its attractor: the
    initial relaxation layer from init_phi is taken in closed form, not
    stepped."""

    @pytest.mark.parametrize("k", [1e-4, 0.05, 1.0])
    @pytest.mark.parametrize("lengths", [200.0, 1000.0])
    def test_seed_matches_resolved_layer(self, k, lengths):
        # sample L relaxation lengths past the seed, where the stepped layer
        # has decayed to the branch: a tight plain run must agree there (its
        # window is shorter than 8000 relaxation lengths, so it is not seeded)
        rate = _slaved_at(100.0, 1e-6, k, "literal", k)[3] / k
        x_s = 100.0 - lengths / rate
        seeded = integrate(k, 100.0, 0.01, samples=[100.0, x_s, 0.01])
        plain = integrate(
            k, 100.0, x_s, samples=[100.0, x_s], rtol=1e-13, atol=1e-16,
        )
        assert plain.integrator_stats.n_slaved_steps == 0
        got, ref = seeded.state_at(x_s), plain.state_at(x_s)
        assert abs(got.r - ref.r) <= 1e-9 * ref.r
        assert abs(got.phi - ref.phi) <= 1e-11

    def test_first_sample_keeps_the_callers_seed(self):
        # every accepted step is slaved, yet sample 0 is the seed as passed
        traj = integrate(0.05, 100.0, 1.0, init=(2e-6, 0.7))
        stats = traj.integrator_stats
        assert stats.n_steps == stats.n_slaved_steps > 0
        assert (traj.r[0], traj.phi[0]) == (2e-6, 0.7)

    def test_slaved_stages_are_a_prefix(self, monkeypatch):
        # entered at the seed or never, left at most once: every slaved
        # evaluation comes before every full-system one
        flags = _spy_stages(monkeypatch)
        traj = integrate(1e-3, 100.0, 0.01, samples=[100.0, 0.01])
        stats = traj.integrator_stats
        assert 0 < stats.n_slaved_steps < stats.n_steps
        assert flags[0] and not flags[-1]
        assert flags == sorted(flags, reverse=True)

    def test_sub_ulp_step_on_the_branch(self, monkeypatch):
        # checkpoints a few ulps of x apart, where tau = -1/x is the finer
        # grid: a step of 20 ulps of tau stops 1 ulp short of the third
        # checkpoint but on it in x, and the 1-ulp landing that follows
        # leaves x unchanged; the lag estimate must skip that step, not
        # divide by the zero difference in x
        seen = []
        attractor_phi = eng._attractor_phi

        def spy(s, phi_anchor):
            # called at the seed and once per accepted slaved step, after x moves
            seen.append(sys._getframe(1).f_locals["x"])
            return attractor_phi(s, phi_anchor)

        monkeypatch.setattr(eng, "_attractor_phi", spy)
        x0 = 1050.0
        xs = [x0 - n * math.ulp(x0) for n in (0, 1, 12, 212)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(1e-6, x0, xs[-1], init=(1e-9, PI4), samples=xs)
        stats = traj.integrator_stats
        unmoved = [a == b for a, b in zip(seen, seen[1:])]
        assert stats.status == "ok"
        assert stats.n_steps == stats.n_slaved_steps == len(unmoved)
        assert any(unmoved)
        assert traj.x == tuple(xs)

    def test_checkpoint_sharing_a_tau_is_recorded_at_its_x(self):
        # 1000 - u rounds to the tau of 1000: no step is taken to reach it,
        # and the state, already at that tau, is recorded at the requested x
        u = math.ulp(1000.0)
        xs = [1000.0, 1000.0 - u, 1000.0 - 16 * u, 1000.0 - 216 * u]
        assert -1.0 / xs[0] == -1.0 / xs[1]
        traj = integrate(1e-6, xs[0], xs[-1], init=(1e-9, PI4), samples=xs)
        assert traj.integrator_stats.status == "ok"
        assert traj.x == tuple(xs)
        state = traj.state_at(xs[1])
        assert (state.r, state.phi) == (traj.r[1], traj.phi[1])

    def test_crossing_mode_lands_in_one_attempt(self, monkeypatch):
        # the first trial step spans the window: on the attractor ln r is
        # near-linear in tau, so it is accepted, and a run that ends on the
        # fast path re-seeds no full-system stage
        flags = _spy_stages(monkeypatch)
        stats = integrate(1.0, 100.0, 1.0, samples=[100.0, 1.0]).integrator_stats
        assert (stats.n_steps, stats.n_rejected, stats.n_slaved_steps) == (1, 0, 1)
        assert flags and all(flags)


class TestEvolveGrid:
    def test_single_k_matches_integrate(self):
        cfg = SweepConfig()
        res = evolve_grid([0.5], cfg)
        assert len(res) == 1 and res[0].error is None
        traj = integrate(
            0.5, cfg.x_start, 1.0,
            init=(cfg.init_r, cfg.init_phi),
            samples=[cfg.x_start, 1.0],
        )
        assert res[0].state == traj.state_at(1.0)

    def test_single_k_matches_integrate_super_horizon(self):
        cfg = SweepConfig(eval_point="super-horizon")
        res = evolve_grid([0.5], cfg)
        assert len(res) == 1 and res[0].error is None
        traj = integrate(
            0.5, cfg.x_start, cfg.x_end,
            init=(cfg.init_r, cfg.init_phi),
            samples=[cfg.x_start, cfg.x_end],
        )
        assert res[0].state == traj.state_at(cfg.x_end)
        assert res[0].stats == traj.integrator_stats

    def test_duplicate_entries_bitwise_identical(self):
        res = evolve_grid([0.2, 0.2], SweepConfig())
        assert res[0].state == res[1].state

    def test_super_horizon_eval(self):
        cfg = SweepConfig(eval_point="super-horizon")
        res = evolve_grid([0.01], cfg)
        assert res[0].state.x == cfg.x_end

    def test_failures_flagged_not_raised(self):
        # r = 0 exactly is the angle singularity; both modes must be
        # reported, not raised
        cfg = SweepConfig(init_r=0.0)
        res = evolve_grid([0.3, 0.6], cfg)
        assert all(m.state is None and m.error for m in res)
        assert all(m.error.startswith("step size underflow") for m in res)

    def test_program_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("math domain error")

        monkeypatch.setattr(squeeze_dynamics, "integrate", broken)
        with pytest.raises(ValueError, match="math domain error"):
            evolve_grid([0.3], SweepConfig())

    def test_engine_runs_on_floats(self, monkeypatch):
        # every stage must see Python floats, on which it runs about twice
        # as fast as on numpy scalars
        seen = []

        def spy(name):
            stage = getattr(eng, name)

            def wrapper(*args):
                seen.append(tuple(type(a) for a in args if not isinstance(a, str)))
                return stage(*args)

            monkeypatch.setattr(eng, name, wrapper)

        spy("_stage")
        spy("_slaved_stage")
        cfg = SweepConfig(k_points=3)
        res = evolve_grid(make_k_grid(cfg), cfg)
        assert all(m.error is None for m in res)
        assert seen and {tp for t in seen for tp in t} == {float}

    def test_sweep_trajectories_hold_floats(self, monkeypatch):
        # the trajectories behind a sweep carry Python floats
        trajs = []

        def recorder(*args, **kwargs):
            trajs.append(integrate(*args, **kwargs))
            return trajs[-1]

        monkeypatch.setattr(squeeze_dynamics, "integrate", recorder)
        cfg = SweepConfig(k_points=3)
        evolve_grid(make_k_grid(cfg), cfg)
        assert len(trajs) == 3
        for traj in trajs:
            assert type(traj.k) is float
            for values in (traj.x, traj.r, traj.phi):
                assert type(values) is tuple and {type(v) for v in values} == {float}

    def test_rejects_descending_grid(self):
        with pytest.raises(ValueError, match="ascending"):
            evolve_grid([1.0, 0.5], SweepConfig())


class TestWrapAngle:
    def test_range(self):
        for phi in np.linspace(-20, 20, 101):
            w = wrap_angle(phi)
            assert -math.pi < w <= math.pi

    def test_identity_inside(self):
        assert wrap_angle(1.2) == 1.2
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi

    def test_winding_removed(self):
        assert wrap_angle(1.0 + 6 * math.pi) == pytest.approx(1.0, abs=1e-12)

import contextlib
import math
import warnings

import numpy as np
import pytest

from sqspec import _integrators as eng
from sqspec import squeeze_dynamics
from sqspec.background import BackgroundParams, CouplingCoefficients
from sqspec.config import SweepConfig
from sqspec.pipeline import make_k_grid
from sqspec.squeeze_dynamics import (
    CappedGrowthWarning,
    SqueezeState,
    StepBudgetError,
    StepSizeUnderflowError,
    evolve_grid,
    integrate,
    rhs_closed_reference,
    rhs_conformal,
    rhs_transformed,
    wrap_angle,
)

PI4 = math.pi / 4.0


class TestRhsPointwise:
    def test_quarter_pi_is_fixed_point_of_r(self):
        # cos(2 phi) = 0 kills the only surviving numerator term at mu2' = 0
        cc = CouplingCoefficients(mu2=0.0, coupling=1.0)
        for r in (1e-6, 0.1, 2.0):
            state = SqueezeState(r=r, phi=PI4, x=3.0)
            dr, _ = rhs_conformal(state, 1.0, couplings=cc)
            assert abs(dr) < 1e-12
            dr_t, _ = rhs_transformed(state, 1.0, couplings=cc)
            assert abs(dr_t) < 1e-12

    def test_large_r_saturation(self):
        # sinh 2r / (sinh 2r + ...) -> 1 at mu2 = 0
        cc = CouplingCoefficients(mu2=0.0, coupling=1.0)
        state = SqueezeState(r=25.0, phi=0.4, x=2.0)
        dr, _ = rhs_conformal(state, 1.0, couplings=cc)
        assert dr == pytest.approx(-1.0 * math.cos(0.8), rel=1e-10)
        state_t = SqueezeState(r=40.0, phi=0.0, x=2.0)
        dr_t, _ = rhs_transformed(state_t, 1.0, couplings=cc)
        assert dr_t == pytest.approx(-1.0, rel=1e-12)

    def test_conformal_frozen_oracle(self):
        # independent 50-digit evaluation of the printed expressions at
        # r=1, phi=0.3, eta=-1, k=1, M_P=1 (A = 1, mu2 = 1)
        state = SqueezeState(r=1.0, phi=0.3, x=1.0)
        dr, dp = rhs_conformal(state, 1.0)
        assert dr == pytest.approx(-0.35681929285030654, rel=1e-14)
        assert dp == pytest.approx(-0.22492441159015873, rel=1e-14)

    def test_transformed_frozen_oracle(self):
        # r=0.5, phi=1.0, mu2=0.2, |1-mu1^2| = 4 (coupling 2), M_P=1
        cc = CouplingCoefficients(mu2=0.2, coupling=2.0)
        state = SqueezeState(r=0.5, phi=1.0, x=1.0)
        dr, dp = rhs_transformed(state, 1.0, couplings=cc)
        assert dr == pytest.approx(1.1617798511896459, rel=1e-14)
        assert dp == pytest.approx(1.6440707015465308, rel=1e-14)

    def test_conformal_equals_transformed(self):
        # the two printed forms are algebraically identical
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
                mu2_rate=rng.uniform(-0.5, 0.5),
            )
            a = rhs_conformal(state, 1.0, couplings=cc)
            b = rhs_transformed(state, 1.0, couplings=cc)
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_closed_reference_is_analytic_limit(self):
        cc0 = CouplingCoefficients(mu2=0.0, coupling=0.7)
        state = SqueezeState(r=0.9, phi=1.1, x=4.0)
        closed = rhs_closed_reference(state, 1.0, couplings=cc0)
        conformal = rhs_conformal(state, 1.0, couplings=cc0)
        np.testing.assert_allclose(closed, conformal, rtol=1e-14)

    def test_coupling_power_modes_differ(self):
        state = SqueezeState(r=0.5, phi=0.3, x=10.0)
        lit = rhs_conformal(state, 0.5, coupling_power="literal")
        ham = rhs_conformal(state, 0.5, coupling_power="hamiltonian-consistent")
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
            assert rhs_conformal(state, 1.0, couplings=cc)[0] == 0.0
            assert rhs_transformed(state, 1.0, couplings=cc)[0] == 0.0

    def test_singular_angle_term_is_not_a_crash(self):
        # r = 0 with sin(2 phi) != 0: the angle rate is unbounded but must
        # come back as a value, not an exception
        state = SqueezeState(r=0.0, phi=0.3, x=2.0)
        dr, dp = rhs_conformal(state, 1.0)
        assert dr == 0.0
        assert math.isinf(dp)


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


class TestIntegrate:
    def test_dual_integrator_agreement(self):
        ref = integrate(0.8, 5.0, 0.5, init=(0.05, PI4), samples=[5.0, 0.5])
        fix = integrate(
            0.8, 5.0, 0.5, init=(0.05, PI4), samples=[5.0, 0.5],
            method="fixed", h_fixed=1e-3,
        )
        assert abs(ref.samples[-1].r - fix.samples[-1].r) < 1e-8
        assert abs(ref.samples[-1].phi - fix.samples[-1].phi) < 1e-8

    def test_fixed_step_order_four(self):
        ref = integrate(
            0.8, 5.0, 0.5, init=(0.05, PI4), samples=[5.0, 0.5],
            rtol=1e-13, atol=1e-13,
        ).samples[-1]
        errs = []
        for h in (0.02, 0.01, 0.005, 0.0025):
            end = integrate(
                0.8, 5.0, 0.5, init=(0.05, PI4), samples=[5.0, 0.5],
                method="fixed", h_fixed=h,
            ).samples[-1]
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
        with pytest.warns(CappedGrowthWarning) if k == 1.0 else contextlib.nullcontext():
            traj = integrate(k, 100.0, 0.01, samples=[100.0, 1.0, 0.01])
        s1 = traj.state_at(1.0)
        assert abs(s1.r - r1) < 2e-9
        assert abs(s1.phi - phi1) < 1e-9
        assert traj.state_at(0.01).r == pytest.approx(rend, rel=1e-5)

    def test_singularity_seed_never_non_finite(self):
        traj = integrate(0.1, 20.0, 0.5, init=(1e-8, PI4))
        assert np.all(np.isfinite(traj.r))
        assert np.all(np.isfinite(traj.phi))

    def test_finite_and_subcap_through_crossing(self):
        for k in (1e-4, 0.05, 1.0):
            traj = _quiet_default_traj(k)
            assert np.all(np.isfinite(traj.r))
            pre_crossing = traj.r[traj.x >= 1.0]
            assert np.all(pre_crossing < 30.0)

    def test_determinism_bitwise(self):
        a = integrate(0.3, 50.0, 0.05)
        b = integrate(0.3, 50.0, 0.05)
        assert a.samples == b.samples

    def test_sample_structure(self):
        traj = integrate(0.7, 30.0, 0.2, samples=24)
        x = traj.x
        assert x[0] == 30.0 and x[-1] == 0.2
        assert np.all(np.diff(x) < 0)
        assert 1.0 in x  # horizon crossing always recorded
        assert traj.samples[0].r == 1e-6 and traj.samples[0].phi == PI4

    def test_cap_warning_and_flag(self):
        with pytest.warns(CappedGrowthWarning):
            traj = integrate(1.0, 100.0, 0.01, r_cap=30.0)
        assert traj.integrator_stats.capped

    def test_underflow_diagnostic_keeps_last_state(self):
        with pytest.raises(StepSizeUnderflowError) as excinfo:
            integrate(0.5, 10.0, 1.0, init=(0.0, 0.3), stiff_mode="off", max_steps=100000)
        traj = excinfo.value.trajectory
        assert len(traj.samples) >= 1
        assert traj.integrator_stats.status == "step-underflow"

    def test_step_budget_keeps_partial_trajectory(self):
        with pytest.raises(StepBudgetError) as excinfo:
            integrate(0.5, 10.0, 1.0, max_steps=50, stiff_mode="off")
        traj = excinfo.value.trajectory
        assert traj.integrator_stats.status == "max-steps"
        assert traj.samples[0].x == 10.0
        assert 1.0 < traj.samples[-1].x < 10.0
        assert np.all(np.isfinite(traj.r)) and np.all(np.isfinite(traj.phi))

    def test_validation(self):
        with pytest.raises(ValueError, match="x_start"):
            integrate(1.0, 0.5, 2.0)
        with pytest.raises(ValueError, match="form"):
            integrate(1.0, 5.0, 0.5, form="nope")
        with pytest.raises(ValueError, match="tolerances"):
            integrate(1.0, 5.0, 0.5, rtol=0.0)
        for r0 in (-1e-300, math.nextafter(eng._R_MAX, math.inf)):
            with pytest.raises(ValueError, match="^init r must lie in"):
                integrate(1.0, 5.0, 0.5, init=(r0, PI4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name",
        [
            "k", "x_start", "x_end", "rtol", "atol", "r_cap", "h_fixed", "init r",
            "init phi", "samples",
        ],
    )
    def test_non_finite_argument_named(self, name, bad):
        kwargs = dict(k=0.5, x_start=10.0, x_end=1.0)
        if name == "h_fixed":
            kwargs["method"] = "fixed"
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

    def test_init_r_at_double_range_edge(self):
        # the largest valid seed evaluates without overflow; r then stalls there
        with pytest.raises(StepBudgetError):
            integrate(0.5, 10.0, 1.0, init=(eng._R_MAX, PI4), max_steps=200)

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
                    abs(op.samples[-1].r - cl.samples[-1].r),
                    abs(op.samples[-1].phi - cl.samples[-1].phi),
                )
            )
        for (r1, p1), (r2, p2) in zip(devs, devs[1:]):
            assert 0.45 <= p2 / p1 <= 0.55
            assert 0.20 <= r2 / r1 <= 0.30

    def test_stiff_bypass_matches_plain_where_affordable(self):
        # non-stiff window: auto mode must not engage the fast path, and the
        # result must match a forced plain run bit for bit
        auto = integrate(0.8, 5.0, 0.5, init=(0.05, PI4))
        off = integrate(0.8, 5.0, 0.5, init=(0.05, PI4), stiff_mode="off")
        assert auto.integrator_stats.n_slaved_steps == 0
        assert auto.samples == off.samples


class TestSlavedBranch:
    """The slaved stages take dr/dx straight from sin(2 phi*); it must agree
    with the full right-hand side evaluated at the attractor angle."""

    @pytest.mark.parametrize("form", eng.FORMS)
    @pytest.mark.parametrize("power", eng.COUPLING_POWERS)
    @pytest.mark.parametrize(
        "x,r,k",
        [(100.0, 1e-6, 0.05), (1.0, 2.7e-6, 1e-4), (3.0, 5e-5, 0.7), (0.5, 0.3, 0.2),
         (0.02, 4.0, 1.0)],
    )
    def test_matches_rhs_at_attractor(self, form, power, x, r, k):
        args = (k, 1.0, power, form)
        phi_star, ok = eng._attractor_phi(x, r, math.pi / 2, *args)
        assert ok
        fast = eng._slaved_drdx(x, r, math.pi / 2, *args)
        full, _ = eng._rhs_x(x, r, phi_star, *args)
        assert fast == pytest.approx(full, rel=1e-13)

    @pytest.mark.parametrize("form", eng.FORMS)
    def test_slaved_rhs_holds_the_angle(self, form):
        # the driver's one stage sequence runs the slaved regime through
        # _rhs_x(..., slaved=True): dr/dx from the branch, dphi/dx exactly 0
        args = (0.05, 1.0, "literal", form)
        for x, r, anchor in ((100.0, 1e-6, math.pi / 2), (10.0, 3.0, 0.4)):
            dr, dphi = eng._rhs_x(x, r, anchor, *args, slaved=True)
            assert dphi == 0.0
            assert dr == eng._slaved_drdx(x, r, anchor, *args)

    @pytest.mark.parametrize("form", ["conformal", "transformed"])
    def test_anchor_angle_where_branch_is_missing(self, form):
        # at x = 10, r = 3, k = 10 the bracket is ~11.1, so sin(2 phi*) =
        # 2 mu2 / B ~ 1.8: no fixed point, and the angle stays at the anchor
        args = (10.0, 1.0, "literal", form)
        assert not eng._attractor_phi(10.0, 3.0, 0.4, *args)[1]
        fast = eng._slaved_drdx(10.0, 3.0, 0.4, *args)
        full, _ = eng._rhs_x(10.0, 3.0, 0.4, *args)
        assert full != eng._rhs_x(10.0, 3.0, math.pi / 2, *args)[0]
        assert fast == pytest.approx(full, rel=1e-13)

    def test_non_finite_angle_gives_nan(self):
        # a stage angle driven to inf through coth(0) must be rejected, not raise
        derivs = eng._rhs_eta(1e-6, math.inf, 1.0, 0.1, 0.0, 1.0, "conformal")
        assert all(math.isnan(v) for v in derivs)


class TestSlavedExit:
    """The fast path is left when its adiabatic error exceeds rtol, or
    200 relaxation lengths before the last checkpoint, whichever is first."""

    @pytest.mark.parametrize(
        "power,x_end", [("literal", 0.01), ("hamiltonian-consistent", 1.0)]
    )
    def test_no_stiff_walk_to_the_evaluation_point(self, power, x_end):
        # walking the last 4000 relaxation lengths with the full system
        # costs ~1000 attempts here; staying on the branch costs ~230
        traj = integrate(
            1e-4, 100.0, x_end, coupling_power=power, samples=[100.0, x_end]
        )
        stats = traj.integrator_stats
        assert stats.n_steps + stats.n_rejected <= 400

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CappedGrowthWarning)
            got = integrate(k, 100.0, x_end, **kwargs).samples[-1]
            ref = integrate(k, 100.0, x_end, rtol=1e-13, atol=1e-16, **kwargs).samples[-1]
        assert abs(got.r - ref.r) <= r_bound * ref.r
        assert abs(got.phi - ref.phi) <= phi_bound

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
        assert runs[0].samples == runs[1].samples
        stats = runs[0].integrator_stats
        assert stats.n_slaved_steps > 0
        assert stats.n_steps - stats.n_slaved_steps <= 100


class TestSeededLayer:
    """Under stiff_mode="auto" the angle starts on its attractor: the initial
    relaxation layer from init_phi is taken in closed form, not stepped."""

    @pytest.mark.parametrize("k", [1e-4, 0.05, 1.0])
    @pytest.mark.parametrize("lengths", [200.0, 1000.0])
    def test_seed_matches_resolved_layer(self, k, lengths):
        # sample L relaxation lengths past the seed, where the stepped layer
        # has decayed to the branch: a tight plain run must agree there
        a_cc, mu2 = eng._couplings_x(100.0, k, 1.0, "literal")
        rate = eng._phase_bracket(1e-6, a_cc, mu2, 1.0, "conformal") / k
        x_s = 100.0 - lengths / rate
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CappedGrowthWarning)
            seeded = integrate(k, 100.0, 0.01, samples=[100.0, x_s, 0.01])
        plain = integrate(
            k, 100.0, x_s, samples=[100.0, x_s], stiff_mode="off",
            rtol=1e-13, atol=1e-16,
        )
        got, ref = seeded.state_at(x_s), plain.samples[-1]
        assert abs(got.r - ref.r) <= 1e-9 * ref.r
        assert abs(got.phi - ref.phi) <= 1e-11

    def test_first_sample_keeps_the_callers_seed(self):
        # every accepted step is slaved, yet sample 0 is the seed as passed
        traj = integrate(0.05, 100.0, 1.0, init=(2e-6, 0.7))
        stats = traj.integrator_stats
        assert stats.n_steps == stats.n_slaved_steps > 0
        assert (traj.samples[0].r, traj.samples[0].phi) == (2e-6, 0.7)

    def test_slaved_stages_are_a_prefix(self, monkeypatch):
        # entered at the seed or never, left at most once: every slaved
        # evaluation comes before every full-system one
        flags = []

        def spy(*args):
            flags.append(len(args) > 7 and args[7])
            return rhs_x(*args)

        rhs_x = eng._rhs_x
        monkeypatch.setattr(eng, "_rhs_x", spy)
        traj = integrate(1e-3, 100.0, 0.01, samples=[100.0, 0.01])
        stats = traj.integrator_stats
        assert 0 < stats.n_slaved_steps < stats.n_steps
        assert flags[0] and not flags[-1]
        assert flags == sorted(flags, reverse=True)

    def test_sub_ulp_step_on_the_branch(self):
        # the first steps are below half an ulp of x, so accepted slaved
        # steps leave x unchanged; the lag estimate must skip them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(1e-6, 1000.0, 1000.0 - 1e-10, init=(1e-9, PI4))
        stats = traj.integrator_stats
        assert stats.status == "ok"
        assert stats.n_steps == stats.n_slaved_steps > 0


def _quiet_default_traj(k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CappedGrowthWarning)
        return integrate(k, 100.0, 0.01)


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
        cfg = SweepConfig()
        res = evolve_grid([0.5], cfg, eval_point="super-horizon")
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
        cfg = SweepConfig()
        res = evolve_grid([0.01], cfg, eval_point="super-horizon")
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
        # the sweep's k grid and checkpoints are numpy arrays; every stage
        # must still see Python floats, on which it runs about twice as fast
        seen = []

        def spy(x, r, phi, k, *args):
            seen.append((type(x), type(r), type(phi), type(k)))
            return rhs_x(x, r, phi, k, *args)

        rhs_x = eng._rhs_x
        monkeypatch.setattr(eng, "_rhs_x", spy)
        cfg = SweepConfig(k_points=3)
        res = evolve_grid(make_k_grid(cfg), cfg)
        assert all(m.error is None for m in res)
        assert seen and set(seen) == {(float, float, float, float)}

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

    def test_winding_removed(self):
        assert wrap_angle(1.0 + 6 * math.pi) == pytest.approx(1.0, abs=1e-12)

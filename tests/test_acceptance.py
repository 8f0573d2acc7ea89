"""Acceptance suite: every release gate in one module, one pass/fail line per
criterion (run with `pytest tests/test_acceptance.py -v -s` to see the lines).

Criteria 1-6 are quantitative formula-level checks with hard tolerances;
criteria 7-10 are the desk-scale figure reproductions (flat r(k) and phi(k),
near-zero occupation, spectrum ratio near one, anchored spectrum and tilt);
11-12 are the unsqueezed regression and byte-level determinism.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from perfbench import oracle
from sqspec.background import CouplingCoefficients, LanczosChain, lanczos_chain
from sqspec.bogoliubov import coefficients
from sqspec.config import SweepConfig
from sqspec.krylov import (
    characteristic_poly_residual,
    meixner_poly,
    otmss_amplitudes,
    tmss_amplitudes,
)
from sqspec.pipeline import run_sweep, write_outputs
from sqspec.squeeze_dynamics import SqueezeState, integrate


def _criterion(num, name, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def default_report():
    return run_sweep(SweepConfig())


@pytest.fixture(scope="module")
def consistent_report():
    return run_sweep(
        dataclasses.replace(SweepConfig(), coupling_power="hamiltonian-consistent")
    )


def test_criterion_01_wronskian_scan(default_report):
    rng = np.random.RandomState(101)
    t0 = time.perf_counter()
    worst = max(rec.wronskian_residual for rec in default_report.records)
    for _ in range(10_000):
        s = SqueezeState(
            r=rng.uniform(0.0, 5.0), phi=rng.uniform(-math.pi, math.pi), x=1.0
        )
        worst = max(worst, coefficients(s).wronskian_residual)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _criterion(
        1, "wronskian-scan",
        ok, f"max residual {worst:.3e} (bound 1e-12), {elapsed:.2f} s (bound 1 s)",
    )


def test_criterion_02_gamma_identity():
    rng = np.random.RandomState(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(0.0, 5.0)
        phi = rng.uniform(-math.pi, math.pi)
        pair = coefficients(SqueezeState(r=r, phi=phi, x=1.0))
        closed = math.cosh(2 * r) + math.sinh(2 * r) * math.cos(phi)
        direct = abs(pair.alpha - pair.beta) ** 2
        worst = max(worst, abs(direct - closed) / math.cosh(2 * r))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _criterion(
        2, "gamma-identity",
        ok, f"max scaled mismatch {worst:.3e} (bound 1e-12), {elapsed:.2f} s (bound 1 s)",
    )


def test_criterion_03_meixner_lanczos_equivalence():
    rng = np.random.RandomState(303)
    t0 = time.perf_counter()
    chains = [
        lanczos_chain(10, eta=-1.0, k=1.0),
        LanczosChain(
            b=np.concatenate([[0.0], rng.uniform(0.2, 3.0, size=10)]),
            c_mag=rng.uniform(0.1, 5.0, size=11),
        ),
    ]
    worst = 0.0
    for chain in chains:
        xs = rng.uniform(-10, 10, size=(100, 2)) @ np.array([1.0, 1.0j])
        for x in xs:
            for n in range(1, 11):
                rel = characteristic_poly_residual(n, x, chain) / max(
                    1.0, abs(meixner_poly(n, x, chain))
                )
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    _criterion(
        3, "meixner-lanczos",
        ok, f"max relative residual {worst:.3e} (bound 1e-9), {elapsed:.2f} s (bound 1 s)",
    )


def test_criterion_04_weak_dissipation_limit():
    t0 = time.perf_counter()
    r, phi = 1.0, 0.3
    ref = tmss_amplitudes(r, phi, n_max=60).coefficients
    devs = []
    for mu2 in (1e-3, 5e-4, 2.5e-4):
        cc = CouplingCoefficients(mu2=mu2, coupling=1.0)
        devs.append(
            np.max(np.abs(np.asarray(otmss_amplitudes(r, phi, cc, n_max=60).coefficients) - ref))
        )
    ratios = (devs[1] / devs[0], devs[2] / devs[1])
    elapsed = time.perf_counter() - t0
    ok = all(0.45 <= q <= 0.55 for q in ratios) and elapsed < 1.0
    _criterion(
        4, "weak-dissipation-limit",
        ok, f"halving ratios {ratios[0]:.4f}, {ratios[1]:.4f} (bounds [0.45, 0.55]), "
            f"{elapsed:.2f} s (bound 1 s)",
    )


def test_criterion_05_tmss_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.5, 1.0, 2.0, 4.0):
        amp = tmss_amplitudes(r, 0.7)  # auto-selected truncation
        worst = max(worst, abs(np.sum(np.abs(amp.coefficients) ** 2) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _criterion(
        5, "tmss-normalization",
        ok, f"max |sum - 1| {worst:.3e} (bound 1e-12), {elapsed:.2f} s (bound 1 s)",
    )


def test_criterion_06_integrator_cross_validation():
    t0 = time.perf_counter()
    # 20-point grid on a well-conditioned window (the default window's
    # sub-horizon stretch is explicit-hostile; see decisions ledger)
    worst = 0.0
    for k in np.geomspace(0.05, 2.0, 20):
        kwargs = dict(init=(0.05, math.pi / 4), samples=[5.0, 0.5])
        ref = integrate(float(k), 5.0, 0.5, **kwargs)
        fix = integrate(float(k), 5.0, 0.5, h_fixed=1e-3, **kwargs)
        worst = max(worst, abs(ref.r[-1] - fix.r[-1]), abs(ref.phi[-1] - fix.phi[-1]))
    agreement_ok = worst <= 1e-6

    ref = integrate(
        0.8, 5.0, 0.5, init=(0.05, math.pi / 4), samples=[5.0, 0.5],
        rtol=1e-13, atol=1e-13,
    ).state_at(0.5)
    errs = []
    for h in (0.02, 0.01, 0.005, 0.0025):
        end = integrate(
            0.8, 5.0, 0.5, init=(0.05, math.pi / 4), samples=[5.0, 0.5], h_fixed=h,
        ).state_at(0.5)
        errs.append(max(abs(end.r - ref.r), abs(end.phi - ref.phi)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    order_ok = bool(np.all((orders >= 3.5) & (orders <= 4.5)))
    elapsed = time.perf_counter() - t0
    ok = agreement_ok and order_ok and elapsed < 30.0
    _criterion(
        6, "integrator-cross-validation",
        ok, f"max endpoint diff {worst:.3e} (bound 1e-6), orders "
            f"{np.round(orders, 3)} (bounds [3.5, 4.5]), {elapsed:.1f} s (bound 30 s)",
    )


def _flatness(report):
    r = np.array([rec.r for rec in report.records])
    phi = np.array([rec.phi for rec in report.records])
    return (r.max() - r.min()) / r.mean(), (phi.max() - phi.min()) / abs(phi.mean())


def test_criterion_07_flatness_literal_mode(default_report):
    var_r, var_phi = _flatness(default_report)
    ok = var_r < 0.10 and var_phi < 0.10
    _criterion(
        7, "flatness-literal",
        ok, f"r varies {var_r:.2%}, phi varies {var_phi:.2%} (bounds 10%)",
    )


def test_criterion_07_flatness_consistent_mode(consistent_report):
    # The replacement coupling gives e-fold-scale squeezing by crossing with
    # strong k dependence; the 10% bound is not attainable there (see the
    # decisions ledger for the analysis).  The criterion is asserted as
    # stated rather than weakened.
    var_r, var_phi = _flatness(consistent_report)
    ok = var_r < 0.10 and var_phi < 0.10
    _criterion(
        7, "flatness-hamiltonian-consistent",
        ok, f"r varies {var_r:.2%}, phi varies {var_phi:.2%} (bounds 10%)",
    )


def test_criterion_08_occupation_near_zero(default_report):
    worst = default_report.summary.max_occupation
    _criterion(
        8, "occupation-near-zero",
        worst < 0.1, f"max sinh^2 r = {worst:.3e} (bound 0.1)",
    )


def test_criterion_09_ratio_near_one(default_report):
    worst = default_report.summary.max_abs_gamma_minus_one
    _criterion(
        9, "spectrum-ratio-near-one",
        worst < 0.05, f"max |gamma - 1| = {worst:.3e} (bound 0.05)",
    )


def test_criterion_10_anchored_spectrum_and_tilt(default_report):
    pivot_rows = [rec for rec in default_report.records if rec.k == 0.05]
    pivot_ok = (
        len(pivot_rows) == 1
        and pivot_rows[0].power_otmss == 2.196e-9 * pivot_rows[0].gamma
    )
    tilt = default_report.summary.tilt_fit
    tilt_ok = abs(tilt - 0.9649) < 0.0042

    t0 = time.perf_counter()
    run_sweep(SweepConfig())
    elapsed = time.perf_counter() - t0

    ok = pivot_ok and tilt_ok and elapsed < 10.0
    _criterion(
        10, "anchored-spectrum",
        ok, f"pivot row exact: {pivot_ok}, tilt {tilt:.6f} (|d| < 0.0042), "
            f"sweep {elapsed:.2f} s (bound 10 s)",
    )


def test_criterion_11_unsqueezed_regression():
    t0 = time.perf_counter()
    report = run_sweep(dataclasses.replace(SweepConfig(), zero_coupling=True))
    elapsed = time.perf_counter() - t0
    gamma_ok = all(rec.gamma == 1.0 for rec in report.records)
    power_ok = all(rec.power_otmss == rec.power_bd for rec in report.records)
    amp_err = abs(report.summary.amplitude_fit - 2.196e-9) / 2.196e-9
    tilt_err = abs(report.summary.tilt_fit - 0.9649)
    ok = gamma_ok and power_ok and amp_err < 1e-12 and tilt_err < 1e-12 and elapsed < 5.0
    _criterion(
        11, "unsqueezed-regression",
        ok, f"gamma==1: {gamma_ok}, power==BD: {power_ok}, fit errors "
            f"{amp_err:.1e}/{tilt_err:.1e} (bounds 1e-12), {elapsed:.2f} s (bound 5 s)",
    )


def test_criterion_12_determinism(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_outputs(run_sweep(SweepConfig()), dir_a)
    write_outputs(run_sweep(SweepConfig()), dir_b)
    same = (dir_a / "records.csv").read_bytes() == (dir_b / "records.csv").read_bytes()
    _criterion(12, "determinism", same, "two default sweeps give byte-identical records.csv")


def test_supplementary_initial_condition_scan():
    # the default seed (r0, phi0) is a modelling choice, so the gates must
    # not hinge on it: the crossing-time growth factor r(1)/r0 and the
    # near-unity spectrum ratio have to survive seed variations
    growths = []
    worst_gamma = 0.0
    for r0 in (1e-7, 1e-6, 1e-5):
        for phi0 in (math.pi / 4 - 0.3, math.pi / 4, math.pi / 4 + 0.3):
            traj = integrate(0.05, 100.0, 0.01, init=(r0, phi0), samples=[100.0, 1.0, 0.01])
            s = traj.state_at(1.0)
            growths.append(s.r / r0)
            pair = coefficients(s)
            worst_gamma = max(worst_gamma, abs(abs(pair.alpha - pair.beta) ** 2 - 1.0))
    spread = (max(growths) - min(growths)) / (sum(growths) / len(growths))
    ok = spread < 0.01 and worst_gamma < 1e-6
    _criterion(
        0, "initial-condition-scan",
        ok, f"growth-factor spread {spread:.2%} (bound 1%) over r0 in [1e-7, 1e-5], "
            f"phi0 in pi/4 +- 0.3; max |gamma - 1| {worst_gamma:.2e} (bound 1e-6)",
    )


def test_supplementary_crossing_closed_form(default_report):
    # with the angle on its attracting branch the literal-coupling amplitude
    # has a Lambert-W closed form at x = 1; the sweep must land on it
    cfg = SweepConfig()
    worst = 0.0
    for rec in default_report.records:
        closed = oracle.r_closed(rec.k * cfg.unit_scale, 1.0, cfg.init_r, cfg.x_start)
        worst = max(worst, abs(rec.r - closed) / closed)
    _criterion(
        0, "crossing-closed-form",
        worst <= 1e-9, f"max |r - r_closed| / r_closed = {worst:.3e} (bound 1e-9)",
    )


def test_supplementary_step_attempts(default_report):
    # each mode's first trial step spans its whole window, and on the
    # attractor the slaved variable is linear in tau, so each of the 200
    # modes lands in one attempt
    summary = default_report.summary
    attempts = summary.n_steps + summary.n_rejected
    _criterion(
        0, "step-attempts",
        attempts <= 300, f"{attempts} step attempts over {summary.n_records} modes (bound 300)",
    )


def test_supplementary_mode_function_ratio(default_report, consistent_report):
    # gamma is the super-horizon limit of |v_z/v_BD|^2; at crossing the two
    # agree to 2.2e-6 on the literal sweep, while the consistent sweep's
    # r(1) up to ~4.6 keeps them 0.42 apart
    literal = default_report.summary.max_abs_mode_ratio_over_gamma_minus_one
    consistent = consistent_report.summary.max_abs_mode_ratio_over_gamma_minus_one
    _criterion(
        0, "mode-function-ratio",
        literal <= 1e-5 and consistent > 0.1,
        f"max | |v_z/v_BD|^2 / gamma - 1 | = {literal:.3e} literal (bound 1e-5), "
        f"{consistent:.3e} hamiltonian-consistent (must exceed 0.1)",
    )

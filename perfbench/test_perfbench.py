"""Tests of the benchmark itself: oracle, workload seeds, checks, tracing and spec."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from perfbench import oracle, run, tracing

R0 = 1e-6
X_START = 100.0


def test_lambert_w_matches_mpmath_over_the_grid():
    # Lambert W arguments of the closed form at x = 1 over the k range any
    # seed can reach (the default window widened by one log-grid spacing)
    for k in np.geomspace(1e-4 * 0.95, 1.0 * 1.05, 400):
        z = (R0 / k) * math.exp(R0 / k + 1.0 - 1.0 / X_START)
        assert oracle.lambert_w(z) == pytest.approx(float(mpmath.lambertw(z)), rel=1e-14)


@pytest.mark.parametrize("z", [0.0, 1e-300, 1e-12, 0.3, math.e, 10.0, 1e6, 1e300])
def test_lambert_w_matches_mpmath(z):
    expected = float(mpmath.lambertw(z))
    assert oracle.lambert_w(z) == pytest.approx(expected, rel=1e-14, abs=1e-320)


@pytest.mark.parametrize("z", [-1e-3, math.inf, math.nan])
def test_lambert_w_rejects_outside_domain(z):
    with pytest.raises(ValueError):
        oracle.lambert_w(z)


@pytest.mark.parametrize("k", [1e-4, 3e-3, 0.05, 1.0])
def test_closed_form_solves_the_reduced_flow(k):
    # r/k + ln(r/k) = 1/x + const is the integral of dr/dx = -(k/x^2) r/(r+k)
    assert oracle.r_closed(k, X_START, R0, X_START) == pytest.approx(R0, rel=1e-14)
    invariant = [
        r / k + math.log(r / k) - 1.0 / x
        for x in (X_START, 10.0, 1.0, 0.5)
        for r in [oracle.r_closed(k, x, R0, X_START)]
    ]
    assert max(invariant) - min(invariant) < 1e-12 * max(1.0, abs(invariant[0]))


def test_seed_zero_is_the_default_grid():
    from sqspec import SweepConfig

    assert run.workload_config("crossing", 0) == SweepConfig()
    assert run.workload_config("superhorizon", 0) == SweepConfig(eval_point="super-horizon")
    assert run.workload_config("consistent", 0) == SweepConfig(
        coupling_power="hamiltonian-consistent"
    )


@pytest.mark.parametrize("seed", [1, 2, 17, 123456])
def test_seed_shifts_window_within_half_spacing(seed):
    from sqspec import SweepConfig, make_k_grid

    base = SweepConfig()
    config = run.workload_config("crossing", seed)
    assert config == run.workload_config("crossing", seed)
    spacing = math.log(base.k_max / base.k_min) / (base.k_points - 1)
    shift = math.log(config.k_min / base.k_min)
    assert 0 < abs(shift) <= 0.5 * spacing
    assert math.log(config.k_max / base.k_max) == pytest.approx(shift, abs=1e-12)
    assert base.k_pivot in make_k_grid(config)


def test_benchmark_json_matches_spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == run.benchmark_spec()


def _small(workload="crossing"):
    # five modes of the workload's window: fast, and still passes every check
    return dataclasses.replace(run.workload_config(workload, 0), k_points=5)


def test_checks_pass_on_small_sweeps():
    from sqspec import run_sweep

    for workload in run.WORKLOADS:
        config = _small(workload)
        figures = run.check_report(run_sweep(config), config, workload)
        assert ("r_relerr_max" in figures) == (workload == "crossing")


def _with_record(report, index, **changes):
    records = list(report.records)
    records[index] = dataclasses.replace(records[index], **changes)
    return dataclasses.replace(report, records=tuple(records))


def test_checks_catch_corrupted_outputs():
    from sqspec import run_sweep

    config = _small()
    report = run_sweep(config)
    rec = report.records[2]
    r = rec.r * (1.0 + 1e-3)
    gamma = math.cosh(2 * r) + math.sinh(2 * r) * math.cos(rec.phi)
    corrupted = [
        (_with_record(report, 0, phi=math.nan), "non-finite"),
        (_with_record(report, 1, gamma=rec.gamma + 1e-9), "spectrum identity"),
        (dataclasses.replace(report, summary=dataclasses.replace(report.summary, tilt_fit=0.97)),
         "fitted tilt"),
        (_with_record(report, 2, r=r, gamma=gamma, occupation=math.sinh(r) ** 2,
                      power_otmss=rec.power_bd * gamma), "r_closed"),
        (dataclasses.replace(report, records=report.records[1:]), "modes reported"),
    ]
    for bad, message in corrupted:
        with pytest.raises(run.CheckFailed, match=message):
            run.check_report(bad, config, "crossing")


def test_traced_loop_records_layer_spans_and_restores_wrappers(tmp_path):
    from sqspec import pipeline, squeeze_dynamics

    before = (pipeline.run_sweep, pipeline.evolve_grid, squeeze_dynamics.integrate,
              pipeline.write_outputs)
    tracer = tracing.Tracer()
    got = run.run_sweeps(_small(), "crossing", 0, tmp_path, tracer)
    assert (len(got.plain), len(got.traced), got.failed) == (1, 1, [0, 0])
    assert got.figures["r_relerr_max"] <= run.R_RELERR_LIMIT
    assert before == (pipeline.run_sweep, pipeline.evolve_grid, squeeze_dynamics.integrate,
                      pipeline.write_outputs)

    by_name = {}
    for span in tracer.spans:
        assert span["run_id"] == "sweep1" and span["end"] >= span["start"]
        by_name.setdefault(span["name"], []).append(span)
    (sweep,) = by_name["pipeline.run_sweep"]
    (evolve,) = by_name["squeeze_dynamics.evolve_grid"]
    (write,) = by_name["pipeline.write_outputs"]
    assert sweep["parent"] is None and write["parent"] is None
    assert evolve["parent"] == sweep["id"]
    assert [m["parent"] for m in by_name["squeeze_dynamics.integrate"]] == [evolve["id"]] * 5
    assert write["bytes"] == sum(p.stat().st_size for p in tmp_path.iterdir())

    got.setup = [(0.3, 0.2, 0.001)]
    metrics = run.layer_metrics(tracer, got)
    assert set(metrics) == {name for name, _, _ in run.PER_LAYER}
    assert metrics["squeeze_dynamics.steps"] == evolve["steps"] > 0
    assert 0 < metrics["squeeze_dynamics.accept_ratio"] <= 1


def test_wrappers_restored_when_the_sweep_raises():
    from sqspec import pipeline

    original = pipeline.run_sweep
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert pipeline.run_sweep is not original
            raise RuntimeError("boom")
    assert pipeline.run_sweep is original


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crossing", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Property test: any valid small-grid configuration sweeps without raising."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sqspec.config import _ENUMS, SweepConfig  # noqa: E402
from sqspec.pipeline import CSV_COLUMNS, run_sweep  # noqa: E402


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def small_sweeps(draw):
    k_min = draw(log_uniform(1e-6, 1e3))
    x_start = draw(log_uniform(1.3, 1000.0))
    return SweepConfig(
        k_min=k_min,
        k_max=k_min * draw(log_uniform(1.01, 1e3)),
        k_points=draw(st.integers(2, 3)),
        unit_scale=draw(log_uniform(0.01, 100.0)),
        x_start=x_start,
        x_end=draw(log_uniform(1e-5 * x_start, 0.99)),
        init_r=draw(st.just(0.0) | log_uniform(1e-9, 5.0)),
        init_phi=draw(st.floats(-10.0, 10.0)),
        form=draw(st.sampled_from(_ENUMS["form"])),
        coupling_power=draw(st.sampled_from(_ENUMS["coupling_power"])),
        eval_point=draw(st.sampled_from(_ENUMS["eval_point"])),
        rtol=draw(log_uniform(1e-12, 1e-4)),
        atol=draw(log_uniform(1e-12, 1e-4)),
    )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_sweeps())
def test_sweep_never_raises(cfg):
    report = run_sweep(cfg)
    for rec in report.records:
        assert all(math.isfinite(getattr(rec, col)) for col in CSV_COLUMNS)
    assert report.summary.n_records + report.summary.n_failures == cfg.k_points

"""Property tests of the config round trip (parse and serialise only)."""

from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from sqspec._integrators import _R_MAX  # noqa: E402
from sqspec.config import _ENUMS, ConfigError, SweepConfig, parse_config, serialize  # noqa: E402

FLOAT_FIELDS = [f.name for f in fields(SweepConfig) if f.type == "float"]

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def valid_configs(draw):
    k_min, k_max = sorted(draw(st.lists(positive, min_size=2, max_size=2, unique=True)))
    return SweepConfig(
        k_min=k_min,
        k_max=k_max,
        k_points=draw(st.integers(min_value=2, max_value=10**6)),
        x_start=draw(st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)),
        x_end=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
        init_r=draw(st.floats(min_value=0.0, max_value=_R_MAX)),
        init_phi=draw(finite),
        form=draw(st.sampled_from(_ENUMS["form"])),
        coupling_power=draw(st.sampled_from(_ENUMS["coupling_power"])),
        eval_point=draw(st.sampled_from(_ENUMS["eval_point"])),
        a_s=draw(positive),
        n_s=draw(finite),
        k_pivot=draw(positive),
        rtol=draw(positive),
        atol=draw(positive),
        unit_scale=draw(positive),
        r_cap=draw(positive),
        zero_coupling=draw(st.booleans()),
    )


@given(valid_configs())
def test_serialize_round_trip(cfg):
    assert parse_config(serialize(cfg)) == cfg


@given(
    valid_configs(),
    st.sampled_from(FLOAT_FIELDS),
    st.sampled_from(["nan", "inf", "-inf"]),
)
def test_non_finite_float_raises(cfg, key, bad):
    lines = [
        f"{key} = {bad}" if line.startswith(f"{key} = ") else line
        for line in serialize(cfg).splitlines()
    ]
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config("\n".join(lines))


@given(valid_configs(), st.floats(min_value=_R_MAX, exclude_min=True, allow_infinity=False))
def test_init_r_past_double_range_raises(cfg, bad):
    text = serialize(cfg).replace(f"init_r = {cfg.init_r!r}\n", f"init_r = {bad!r}\n")
    with pytest.raises(ConfigError, match="init_r must lie in"):
        parse_config(text)

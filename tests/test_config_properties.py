"""Property tests of the config round trip (parse and serialise only)."""

import math
import sys
from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from sqspec.config import _ENUMS, _R_MAX, ConfigError, SweepConfig, parse_config, serialize  # noqa: E402

FLOAT_FIELDS = [f.name for f in fields(SweepConfig) if f.type == "float"]

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# window and anchors where a_s (k/k_pivot)^(n_s - 1) stays a positive double
# (between 1e-50 * 1e-240 and 1e50 * 1e240), as a valid config requires
wavenumber = st.floats(min_value=1e-30, max_value=1e30)
# largest seed angle whose 2 phi, the angle the flow reads, is a double
HALF_MAX = 0.5 * sys.float_info.max


@st.composite
def valid_configs(draw):
    k_min, k_max = sorted(draw(st.lists(wavenumber, min_size=2, max_size=2, unique=True)))
    # x_start^2 / (k_min * unit_scale), the engine's largest stage scale,
    # must stay a double (to within a margin for rounding)
    # k_max * unit_scale, the largest internal wavenumber, must stay a double
    unit_scale = draw(st.floats(
        min_value=1e-250,
        max_value=min(sys.float_info.max, 0.999 * sys.float_info.max / k_max),
    ))
    root_max = math.sqrt(sys.float_info.max)
    x_max = min(sys.float_info.max, 0.999 * math.sqrt(k_min) * math.sqrt(unit_scale) * root_max)
    return SweepConfig(
        k_min=k_min,
        k_max=k_max,
        k_points=draw(st.integers(min_value=2, max_value=10**6)),
        x_start=draw(st.floats(min_value=1.0, max_value=x_max, exclude_min=True)),
        x_end=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
        init_r=draw(st.floats(min_value=0.0, max_value=_R_MAX)),
        init_phi=draw(st.floats(min_value=-HALF_MAX, max_value=HALF_MAX)),
        form=draw(st.sampled_from(_ENUMS["form"])),
        coupling_power=draw(st.sampled_from(_ENUMS["coupling_power"])),
        eval_point=draw(st.sampled_from(_ENUMS["eval_point"])),
        a_s=draw(st.floats(min_value=1e-50, max_value=1e50)),
        n_s=draw(st.floats(min_value=-3.0, max_value=5.0)),
        k_pivot=draw(wavenumber),
        rtol=draw(positive),
        atol=draw(positive),
        unit_scale=unit_scale,
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


@given(
    valid_configs(),
    st.floats(min_value=HALF_MAX, exclude_min=True, allow_infinity=False),
    st.sampled_from([1.0, -1.0]),
)
def test_init_phi_past_half_double_range_raises(cfg, bad, sign):
    text = serialize(cfg).replace(f"init_phi = {cfg.init_phi!r}\n", f"init_phi = {sign * bad!r}\n")
    with pytest.raises(ConfigError, match="init_phi must lie within"):
        parse_config(text)

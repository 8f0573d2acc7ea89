import math
import re
from dataclasses import fields

import pytest

from sqspec.config import (
    ConfigError, SweepConfig, bd_reference_power, load_config, parse_config, serialize,
)

FLOAT_FIELDS = [f.name for f in fields(SweepConfig) if f.type == "float"]


class TestDefaults:
    def test_default_values(self):
        cfg = SweepConfig()
        assert cfg.k_min == 1e-4 and cfg.k_max == 1.0 and cfg.k_points == 200
        assert cfg.x_start == 100.0 and cfg.x_end == 0.01
        assert cfg.init_r == 1e-6 and cfg.init_phi == math.pi / 4
        assert cfg.form == "conformal"
        assert cfg.coupling_power == "literal"
        assert cfg.a_s == 2.196e-9 and cfg.n_s == 0.9649 and cfg.k_pivot == 0.05
        assert cfg.rtol == 1e-10 and cfg.atol == 1e-10
        assert cfg.unit_scale == 1.0
        assert not cfg.zero_coupling

    def test_no_file_gives_defaults(self):
        assert load_config(None) == SweepConfig()


class TestParsing:
    def test_partial_override(self):
        cfg = parse_config("k_points = 50\n")
        assert cfg.k_points == 50
        assert cfg.k_min == 1e-4  # rest default

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nk_max = 2.0  # inline\n")
        assert cfg.k_max == 2.0

    def test_bool_spellings(self):
        assert parse_config("zero_coupling = yes\n").zero_coupling
        assert not parse_config("zero_coupling = off\n").zero_coupling

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'k_mni'"):
            parse_config("k_mni = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("k_max = 1\nk_max = 2\n")

    @pytest.mark.parametrize(
        "text,expects",
        [
            ("k_points = many", "an integer"),
            ("zero_coupling = maybe", "a boolean"),
            ("k_max = big", "a number"),
        ],
    )
    def test_type_errors_name_key_and_line(self, text, expects):
        key = text.split()[0]
        with pytest.raises(ConfigError, match=f"^line 1: key '{key}' expects {expects}, got "):
            parse_config(f"{text}\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("k_points 50\n")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("k_points = 12\nform = closed-reference\n")
        cfg = load_config(path)
        assert cfg.k_points == 12 and cfg.form == "closed-reference"

    def test_transformed_form_is_rejected(self):
        # the transformed form is the conformal one printed differently
        with pytest.raises(ConfigError, match="form must be one of conformal, closed-reference; got 'transformed'"):
            parse_config("form = transformed\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"k_points = 5\n\xff\xfe\n")
        with pytest.raises(ConfigError, match=r"^cannot read config file .*utf-8"):
            load_config(path)


class TestValidation:
    def test_k_order_names_both_fields(self):
        with pytest.raises(ConfigError, match="k_min.*k_max"):
            parse_config("k_min = 2.0\nk_max = 1.0\n")

    def test_window_ordering(self):
        with pytest.raises(ConfigError, match="x_start"):
            SweepConfig(x_start=0.5)
        with pytest.raises(ConfigError, match="x_end"):
            SweepConfig(x_end=0.0)

    def test_stage_scale_past_double_range(self):
        # the engine scales each stage by up to x_start^2 / (k_min * unit_scale)
        SweepConfig(x_start=1e152)
        # x_start / k_min alone overflows; the quotient by both does not
        SweepConfig(x_start=1e150, k_min=1e-100, unit_scale=1e100)
        for kwargs in (
            dict(x_start=1.35e152),
            dict(x_start=1e170),
            # k_min * unit_scale underflows to 0 as a product
            dict(k_min=1e-200, unit_scale=1e-200),
        ):
            with pytest.raises(ConfigError, match=r"^x_start\^2 / \(k_min \* unit_scale\)"):
                SweepConfig(**kwargs)

    def test_k_points_minimum(self):
        with pytest.raises(ConfigError, match="k_points"):
            SweepConfig(k_points=1)

    def test_enum_membership(self):
        with pytest.raises(ConfigError, match="form must be one of"):
            SweepConfig(form="spectral")
        with pytest.raises(ConfigError, match="eval_point"):
            SweepConfig(eval_point="midway")

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(k_min=-1.0), "^k_min must be > 0, got -1.0"),
            (dict(a_s=0.0), "^a_s must be > 0, got 0.0"),
            (dict(k_pivot=-0.05), "^k_pivot must be > 0, got -0.05"),
            (dict(unit_scale=0.0), "^unit_scale must be > 0, got 0.0"),
            # (1e-4/0.05)^-1001 overflows a double
            (dict(n_s=-1000.0), "BD power .* at k = 0.0001 it is inf$"),
            # 1e-300/1e30 underflows to 0, and 0.0 ** (n_s - 1) divides by zero
            (dict(k_min=1e-300, k_pivot=1e30), "BD power .* at k = 1e-300 it is inf$"),
        ],
    )
    def test_constraint_named(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            SweepConfig(**kwargs)

    def test_positive_tolerances(self):
        with pytest.raises(ConfigError, match="tolerances"):
            SweepConfig(atol=-1e-10)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(f"{key} = {value}\n")


@pytest.mark.parametrize(
    "args,named",
    [
        ((math.nan, 1.0, 1.0, 1.0), "k=nan"),
        ((math.inf, 1.0, 1.0, 1.0), "k=inf"),
        ((0.0, 1.0, 1.0, 1.0), "k=0.0"),
        ((1.0, math.nan, 1.0, 1.0), "a_s=nan, k_pivot=1.0"),
        ((1.0, 1.0, 1.0, math.inf), "a_s=1.0, k_pivot=inf"),
        ((1.0, 1.0, math.nan, 1.0), "n_s=nan"),
    ],
)
def test_bd_reference_power_names_bad_argument(args, named):
    # NaN and +-inf are a ValueError that names the argument (a NaN k would
    # give nan ** 0 = 1.0)
    with pytest.raises(ValueError, match=re.escape(named) + "$"):
        bd_reference_power(*args)


class TestSerialize:
    def test_roundtrip_defaults(self):
        cfg = SweepConfig()
        assert parse_config(serialize(cfg)) == cfg

    def test_roundtrip_modified(self):
        cfg = SweepConfig(
            k_min=3e-4, k_points=17, form="closed-reference",
            init_phi=1.234567890123456, zero_coupling=True,
        )
        assert parse_config(serialize(cfg)) == cfg

"""Sweep configuration: a flat key = value text format with a typed schema.

Example file (all keys optional; omitted keys take the defaults below)::

    # two-decade window around the pivot
    k_min    = 1e-4
    k_max    = 1.0
    k_points = 200
    form     = conformal

Unknown keys are rejected, values are type-checked, every float must be
finite, and constraint violations name the offending field(s).  serialize() emits a canonical
round-trippable echo of a resolved configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from ._integrators import _R_MAX, COUPLING_POWERS, FORMS
from .spectrum import PlanckAnchors

__all__ = ["SweepConfig", "ConfigError", "load_config", "parse_config", "serialize"]


class ConfigError(ValueError):
    """Malformed configuration file or constraint violation."""


_ENUMS = {
    "form": FORMS,
    "coupling_power": COUPLING_POWERS,
    "eval_point": ("horizon-crossing", "super-horizon"),
}


@dataclass(frozen=True)
class SweepConfig:
    """Resolved sweep configuration (defaults reproduce the desk-scale run).

    k_min/k_max are wavenumber labels in Mpc^-1; unit_scale maps them onto
    the internal dimensionless grid (internal k = label * unit_scale, with
    M_P = 1).  The spectrum is evaluated per mode at eval_point:
    "horizon-crossing" (x = 1, where the reference figures live) or
    "super-horizon" (x = x_end).
    """

    k_min: float = 1e-4
    k_max: float = 1.0
    k_points: int = 200
    x_start: float = 100.0
    x_end: float = 0.01
    init_r: float = 1e-6
    init_phi: float = math.pi / 4.0
    form: str = "conformal"
    coupling_power: str = "literal"
    eval_point: str = "horizon-crossing"
    a_s: float = 2.196e-9
    n_s: float = 0.9649
    k_pivot: float = 0.05
    rtol: float = 1e-10
    atol: float = 1e-10
    unit_scale: float = 1.0
    r_cap: float = 30.0
    zero_coupling: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not self.k_min < self.k_max:
            raise ConfigError(
                f"k_min must be < k_max, got k_min={self.k_min}, k_max={self.k_max}"
            )
        if self.k_min <= 0:
            raise ConfigError(f"k_min must be > 0, got {self.k_min}")
        if self.k_points < 2:
            raise ConfigError(f"k_points must be >= 2, got {self.k_points}")
        if not (self.x_start > 1.0 > self.x_end > 0.0):
            raise ConfigError(
                f"require x_start > 1 > x_end > 0, got x_start={self.x_start}, "
                f"x_end={self.x_end}"
            )
        if self.rtol <= 0 or self.atol <= 0:
            raise ConfigError(
                f"tolerances must be > 0, got rtol={self.rtol}, atol={self.atol}"
            )
        if not 0 <= self.init_r <= _R_MAX:
            raise ConfigError(f"init_r must lie in [0, {_R_MAX:.4f}], got {self.init_r}")
        if self.a_s <= 0:
            raise ConfigError(f"a_s must be > 0, got {self.a_s}")
        if self.k_pivot <= 0:
            raise ConfigError(f"k_pivot must be > 0, got {self.k_pivot}")
        if self.unit_scale <= 0:
            raise ConfigError(f"unit_scale must be > 0, got {self.unit_scale}")
        if self.r_cap <= 0:
            raise ConfigError(f"r_cap must be > 0, got {self.r_cap}")
        for key, allowed in _ENUMS.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(
                    f"{key} must be one of {', '.join(allowed)}; got {getattr(self, key)!r}"
                )

    @property
    def anchors(self) -> PlanckAnchors:
        return PlanckAnchors(amplitude=self.a_s, tilt=self.n_s, pivot=self.k_pivot)


_SCHEMA = {f.name: f.type for f in fields(SweepConfig)}


def _coerce(key: str, raw: str, lineno: int):
    target = _SCHEMA[key]
    if target == "bool":
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"line {lineno}: key '{key}' expects a boolean, got {raw!r}")
    if target == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: key '{key}' expects an integer, got {raw!r}"
            ) from None
    if target == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: key '{key}' expects a number, got {raw!r}"
            ) from None
    return raw  # str enums validated by SweepConfig itself


def parse_config(text: str) -> SweepConfig:
    """Parse flat key = value text into a resolved SweepConfig."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        values[key] = _coerce(key, raw, lineno)
    return SweepConfig(**values)


def load_config(path: str | Path | None = None) -> SweepConfig:
    """Resolved configuration from a file, or pure defaults when path is None."""
    if path is None:
        return SweepConfig()
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return parse_config(text)


def serialize(config: SweepConfig) -> str:
    """Canonical key = value echo; parse_config(serialize(c)) == c."""
    lines = []
    for f in fields(SweepConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"

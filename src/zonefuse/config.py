"""Pipeline configuration: a flat key=value text format.

One option per line, `#` comments and blank lines ignored.  Unknown or
duplicate keys are rejected so typos fail loudly rather than silently
falling back to defaults.  Relative input/output paths are resolved
against the directory of the config file they came from.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from .activity_ingest import DEFAULT_STAY_DISTANCE_M, DEFAULT_STAY_DURATION_S, parse_timezone
from .errors import ConfigError
from .latent_fusion import Hyperparams
from .poi_ingest import FEATURE_KINDS

METHODS = ("kmeans", "crf")

_PATH_KEYS = ("gps_path", "poi_path", "category_path", "out_dir")


@dataclass(kw_only=True)
class PipelineConfig(Hyperparams):
    """Validated settings for every pipeline stage; the factorization
    settings are the fields of Hyperparams."""

    # study area and grid
    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float
    out_dir: str
    level: int = 6
    # stay detection
    stay_distance_m: float = DEFAULT_STAY_DISTANCE_M
    stay_duration_s: float = DEFAULT_STAY_DURATION_S
    timezone: str = "UTC"
    weekdays_only: bool = False
    # inputs
    gps_path: str = "gps.csv"
    poi_path: str = "pois.csv"
    category_path: str = ""
    # clustering and annotation
    method: str = "crf"
    feature: str = "latent_v"
    zones: int = 4
    beta: float = 1.0
    svd_t: int = 10

    def __post_init__(self):
        # first, so a non-finite float is named before any range check
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not (self.min_lat < self.max_lat and self.min_lon < self.max_lon):
            raise ConfigError("bounding box must have positive extent")
        if not 1 <= self.level <= 12:
            raise ConfigError(f"level {self.level} outside [1, 12]")
        if self.stay_distance_m <= 0 or self.stay_duration_s <= 0:
            raise ConfigError("stay thresholds must be positive")
        # raises a ConfigError naming the timezone, before any stage runs
        parse_timezone(self.timezone)
        if self.method not in METHODS:
            raise ConfigError(f"method {self.method!r} not in {METHODS}")
        if self.feature not in FEATURE_KINDS:
            raise ConfigError(f"feature {self.feature!r} not in {FEATURE_KINDS}")
        if self.zones < 1:
            raise ConfigError(f"zones {self.zones} must be >= 1")
        if self.beta < 0:
            raise ConfigError(f"beta {self.beta} must be >= 0")
        if self.svd_t < 1:
            raise ConfigError(f"svd_t {self.svd_t} must be >= 1")
        if not self.out_dir:
            raise ConfigError("out_dir is required")

    def hyperparams(self) -> Hyperparams:
        return Hyperparams(**{f.name: getattr(self, f.name) for f in fields(Hyperparams)})

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def save(self, path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def from_pairs(cls, pairs: dict[str, str],
                   base_dir: Path | None = None) -> "PipelineConfig":
        field_types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, raw in pairs.items():
            if key not in field_types:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = _convert(key, raw, field_types[key])
        missing = [name for name in ("min_lat", "min_lon", "max_lat", "max_lon",
                                     "out_dir") if name not in kwargs]
        if missing:
            raise ConfigError(f"missing required config keys: {', '.join(missing)}")
        cfg = cls(**kwargs)
        if base_dir is not None:
            for key in _PATH_KEYS:
                value = getattr(cfg, key)
                if value and not Path(value).is_absolute():
                    setattr(cfg, key, str((base_dir / value).resolve()))
        return cfg

    @classmethod
    def load(cls, path, overrides: dict[str, str] | None = None) -> "PipelineConfig":
        """Read a config file; `overrides` pairs replace the file's."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        pairs = {**parse_pairs(text), **(overrides or {})}
        return cls.from_pairs(pairs, base_dir=path.parent)


def parse_pairs(text: str) -> dict[str, str]:
    """Split config text into a key -> raw value map."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _convert(key: str, raw: str, type_name: str):
    try:
        if type_name == "bool":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if type_name == "int":
            return int(raw)
        if type_name == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc

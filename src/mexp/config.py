"""Run configuration: a flat key = value text format with strict key checking.

A minimal config names only the dataset index; everything else resolves to
its default: the descriptor recipe's from `DescriptorConfig`, the RPCA
solver's from `RpcaConfig`, and selection off. `config_items` gives the
resolved `(key, value text)` pairs, which `format_config` joins into the
text form; re-parsing that yields an equal RunConfig. A RunConfig checks its
settings when it is built, raising ConfigError, and its `descriptor` recipe
owns the fingerprint.
"""

import math
import typing
from dataclasses import dataclass, field, fields
from functools import cached_property

from .classify import DEFAULT_C_GRID
from .dataset import SynthSpec
from .descriptor import DescriptorConfig
from .errors import ConfigError
from .rpca import RpcaConfig

SELECTION_MODES = ("off", "on")


@dataclass(frozen=True)
class RunConfig:
    index: str = ""
    blocks_m: int = DescriptorConfig.blocks_m
    blocks_n: int = DescriptorConfig.blocks_n
    mask_w: int = DescriptorConfig.mask_w
    lbp_samples: int = DescriptorConfig.lbp_samples
    lbp_radius: int = DescriptorConfig.lbp_radius
    temporal_length: int = DescriptorConfig.temporal_length
    projection: str = DescriptorConfig.source
    selection: str = "off"
    selection_p: int = 0  # 0 = sweep a P grid by inner cross validation
    c_grid: tuple = DEFAULT_C_GRID
    # None = mean pairwise-distance heuristic
    gamma: float | None = field(default=None, metadata={"none": ("mean",)})
    seed: int = 0
    cache_dir: str = ""
    # None = 1/sqrt(max(D, n))
    rpca_weight: float | None = field(
        default=RpcaConfig.sparse_weight, metadata={"none": ("auto", "0")}
    )
    rpca_tol: float = RpcaConfig.tol
    rpca_max_iter: int = RpcaConfig.max_iter
    rpca_mu0_scale: float = RpcaConfig.mu0_scale
    rpca_rho: float = RpcaConfig.rho

    def __post_init__(self):
        self.descriptor  # builds the recipe, which checks its own settings
        if self.selection not in SELECTION_MODES:
            raise ConfigError(f"selection must be one of {SELECTION_MODES}")
        if self.selection_p < 0:
            raise ConfigError("selection_p must be >= 0 (0 sweeps a grid)")
        if self.selection_p > self.n_groups:
            raise ConfigError(
                f"selection_p {self.selection_p} exceeds the {self.n_groups} groups"
            )
        if not self.c_grid or not all(0 < c < math.inf for c in self.c_grid):
            raise ConfigError("c_grid must be a nonempty list of positive finite values")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ConfigError("gamma must be positive and finite, or 'mean'")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @cached_property
    def descriptor(self) -> DescriptorConfig:
        """The descriptor recipe: block grid, code widths, projection source
        and the RPCA settings of the sparse part."""
        try:
            rpca = RpcaConfig(
                sparse_weight=self.rpca_weight,
                tol=self.rpca_tol,
                max_iter=self.rpca_max_iter,
                mu0_scale=self.rpca_mu0_scale,
                rho=self.rpca_rho,
            )
        except ValueError as e:
            raise ConfigError(f"rpca settings: {e}") from e
        return DescriptorConfig(
            blocks_m=self.blocks_m,
            blocks_n=self.blocks_n,
            mask_w=self.mask_w,
            lbp_samples=self.lbp_samples,
            lbp_radius=self.lbp_radius,
            temporal_length=self.temporal_length,
            source=self.projection,
            rpca=rpca,
        )

    @property
    def n_groups(self) -> int:
        return self.descriptor.n_groups

    def fingerprint(self) -> str:
        return self.descriptor.fingerprint()


def _value_type(f):
    """The type a field's values take apart from None."""
    kinds = [t for t in typing.get_args(f.type) if t is not type(None)]
    return kinds[0] if kinds else f.type


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _parse_value(f, raw: str):
    if raw in f.metadata.get("none", ()):
        return None
    kind = _value_type(f)
    if kind is tuple:
        return tuple(_finite(v) for v in raw.split(",") if v.strip())
    if kind is float:
        return _finite(raw)
    return kind(raw)


def _format_value(f, value) -> str:
    if value is None:
        return f.metadata["none"][0]
    kind = _value_type(f)
    if kind is tuple:
        return ",".join(repr(float(v)) for v in value)
    if kind is float:
        return repr(float(value))
    return str(value)


def _parse_fields(cls, text: str, source: str):
    """An instance of dataclass `cls` from `key = value` lines naming its
    fields; blank lines and `#` comments are skipped, unknown and repeated
    keys rejected, and the other fields keep their defaults."""
    by_name = {f.name: f for f in fields(cls)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in by_name:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(by_name[key], raw)
        except ValueError as e:
            raise ConfigError(f"{where}: key {key}: cannot parse value {raw!r}") from e
    try:
        return cls(**values)
    except ValueError as e:
        raise ConfigError(f"{source}: {e}") from e


def _read_text(path, what: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from e


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    return _parse_fields(RunConfig, text, source)


def parse_config(path) -> RunConfig:
    return parse_config_text(_read_text(path, "config"), source=str(path))


def config_items(cfg: RunConfig) -> list:
    """The resolved settings as (key, value text) pairs, in field order."""
    return [(f.name, _format_value(f, getattr(cfg, f.name))) for f in fields(cfg)]


def format_config(cfg: RunConfig) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config_items(cfg))


def parse_synth_spec(path) -> SynthSpec:
    """Parse a synthesis config: the SynthSpec fields as key = value lines."""
    return _parse_fields(SynthSpec, _read_text(path, "synthesis spec"), str(path))

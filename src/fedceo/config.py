"""Run configuration: the config types, and their flat key=value files.

``_SCHEMA`` maps each file key onto a field of :class:`RunConfig` or its
nested parts; parsing, rendering and value conversion all derive from it.
A file holds one ``key = value`` per line; blank lines and ``#`` comments
are skipped.  Unknown and repeated keys are errors, values must parse as
the key's type, and the config types check every semantic rule on
construction, once: sweep values and gen-data's flags pass through them
too, and the functions that take the values do not check them again.  An
empty file yields the desk defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .data import PARTITION_MODES
from .dp import DpConfig
from .errors import ParseError, ValidationError, naming_file

ALGORITHMS = ("fedavg", "ldp_fedavg", "fedceo")


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "logistic"     # logistic | mlp
    hidden: int = 64
    bias: bool | None = None   # None: logistic yes, mlp no

    def __post_init__(self):
        if self.kind not in ("logistic", "mlp"):
            raise ValidationError(f"unknown kind {self.kind!r}", field="model.kind")
        if self.hidden < 1:
            raise ValidationError("must be >= 1", field="model.hidden")

    @property
    def use_bias(self) -> bool:
        return self.kind == "logistic" if self.bias is None else self.bias


@dataclass(frozen=True)
class DataSpec:
    source: str = "blobs"      # blobs | file
    classes: int = 10
    dim: int = 20
    samples: int = 2000
    spread: float = 1.0
    test_fraction: float = 0.2
    seed: int | None = None    # defaults to the run seed
    path: str | None = None    # for source=file
    partition_mode: str = "iid"
    alpha: float = 0.5

    def __post_init__(self):
        if self.source not in ("blobs", "file"):
            raise ValidationError(f"unknown source {self.source!r}", field="data.source")
        if self.source == "file" and not self.path:
            raise ValidationError("required when data.source=file", field="data.path")
        if self.classes < 2:
            raise ValidationError("must be >= 2", field="data.classes")
        if self.dim < 1:
            raise ValidationError("must be >= 1", field="data.dim")
        if self.samples < 1:
            raise ValidationError("must be >= 1", field="data.samples")
        if self.source == "blobs" and self.samples % self.classes:
            raise ValidationError(
                f"{self.samples} is not divisible by data.classes ({self.classes}), "
                "so the label histogram cannot be exactly uniform", field="data.samples")
        if self.source == "blobs" and self.samples * self.dim * 8 >= 2 ** 63:
            raise ValidationError(  # more than NumPy can address
                f"{self.samples} samples of dim {self.dim} take 2**63 bytes or more",
                field="data.dim" if self.dim > self.samples else "data.samples")
        if not (self.spread >= 0 and math.isfinite(self.spread)):
            raise ValidationError("must be finite and >= 0", field="data.spread")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValidationError("must be in (0, 1)", field="data.test_fraction")
        if self.seed is not None and self.seed < 0:
            raise ValidationError("must be >= 0", field="data.seed")
        if self.partition_mode not in PARTITION_MODES:
            raise ValidationError(
                f"unknown mode {self.partition_mode!r}", field="partition.mode"
            )
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValidationError("must be finite and > 0", field="partition.alpha")


@dataclass(frozen=True)
class RunConfig:
    n_total: int = 20
    k_selected: int = 5
    rounds: int = 60
    local_epochs: int = 3
    batch: int = 32
    lr: float = 0.1
    dp: DpConfig = field(default_factory=DpConfig)
    lambda0: float = 0.5
    ratio: float = 1.05
    interval: int = 5
    algorithm: str = "fedceo"
    seed: int = 0
    eval_every: int = 5
    model: ModelSpec = field(default_factory=ModelSpec)
    data: DataSpec = field(default_factory=DataSpec)

    def __post_init__(self):
        if self.n_total < 1:
            raise ValidationError("must be >= 1", field="n_total")
        if not 1 <= self.k_selected <= self.n_total:
            raise ValidationError("must be in [1, n_total]", field="k_selected")
        if self.rounds < 1:
            raise ValidationError("must be >= 1", field="rounds")
        if self.local_epochs < 1:
            raise ValidationError("must be >= 1", field="local_epochs")
        if self.batch < 1:
            raise ValidationError("must be >= 1", field="batch")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValidationError("must be positive", field="lr")
        if not (self.lambda0 > 0 and math.isfinite(self.lambda0)):
            raise ValidationError("must be positive", field="lambda0")
        if not (self.ratio >= 1.0 and math.isfinite(self.ratio)):
            raise ValidationError("must be finite and >= 1", field="ratio")
        if self.interval < 1:
            raise ValidationError("must be >= 1", field="interval")
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(
                f"must be one of {', '.join(ALGORITHMS)}", field="algorithm"
            )
        if self.seed < 0:
            raise ValidationError("must be >= 0", field="seed")
        if self.eval_every < 1:
            raise ValidationError("must be >= 1", field="eval_every")

    @property
    def data_seed(self) -> int:
        return self.seed if self.data.seed is None else self.data.seed


_TRUE_WORDS = frozenset(("true", "yes", "on", "1"))
_FALSE_WORDS = frozenset(("false", "no", "off", "0"))


def _to_bool(text: str) -> bool:
    low = text.lower()
    if low in _TRUE_WORDS:
        return True
    if low in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (group, field name, converter[, field, value]); groups map onto the
# nested config types ("run" is RunConfig itself).  Rendering keeps this order,
# skips None values, and writes a key with a (field, value) pair only when its
# group's field holds that value.
_SCHEMA = {
    "n_total": ("run", "n_total", int),
    "k_selected": ("run", "k_selected", int),
    "rounds": ("run", "rounds", int),
    "local_epochs": ("run", "local_epochs", int),
    "batch": ("run", "batch", int),
    "lr": ("run", "lr", float),
    "lambda0": ("run", "lambda0", float),
    "ratio": ("run", "ratio", float),
    "interval": ("run", "interval", int),
    "algorithm": ("run", "algorithm", str),
    "seed": ("run", "seed", int),
    "eval_every": ("run", "eval_every", int),
    "dp.clip_c": ("dp", "clip_c", float),
    "dp.sigma": ("dp", "sigma", float),
    "dp.delta": ("dp", "delta", float),
    "model.kind": ("model", "kind", str),
    "model.hidden": ("model", "hidden", int),
    "model.bias": ("model", "bias", _to_bool),
    "data.source": ("data", "source", str),
    "data.path": ("data", "path", str, "source", "file"),
    "data.classes": ("data", "classes", int, "source", "blobs"),
    "data.dim": ("data", "dim", int, "source", "blobs"),
    "data.samples": ("data", "samples", int, "source", "blobs"),
    "data.spread": ("data", "spread", float, "source", "blobs"),
    "data.test_fraction": ("data", "test_fraction", float),
    "data.seed": ("data", "seed", int),
    "partition.mode": ("data", "partition_mode", str),
    "partition.alpha": ("data", "alpha", float, "partition_mode", "dirichlet"),
}


def convert_value(key: str, text: str, line: int | None = None):
    """``text`` as a value of config key ``key``; text that does not convert
    raises :class:`ParseError` naming the key (and ``line``, if given)."""
    try:
        return _SCHEMA[key][2](text)
    except ValueError:
        raise ParseError(f"invalid value {text!r} for key {key!r}", line=line) from None


def parse_config_text(text: str) -> RunConfig:
    """Parse config-file content into a validated :class:`RunConfig`."""
    groups: dict[str, dict] = {"run": {}, "dp": {}, "model": {}, "data": {}}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError("missing key before '='", line=lineno)
        if not value:
            raise ParseError(f"missing value for key {key!r}", line=lineno)
        if key not in _SCHEMA:
            raise ValidationError("unknown config key", field=key)
        if key in seen:
            raise ParseError(
                f"duplicate key {key!r} (first set on line {seen[key]})", line=lineno
            )
        seen[key] = lineno
        group, attr = _SCHEMA[key][:2]
        groups[group][attr] = convert_value(key, value, line=lineno)
    return RunConfig(
        dp=DpConfig(**groups["dp"]),
        model=ModelSpec(**groups["model"]),
        data=DataSpec(**groups["data"]),
        **groups["run"],
    )


def parse_config(path) -> RunConfig:
    """Parse the config file at ``path``; empty files give desk defaults."""
    with open(path, "r", encoding="utf-8") as fh, naming_file(path):
        return parse_config_text(fh.read())


def config_to_dict(cfg: RunConfig) -> dict:
    """Flat key -> value mapping mirroring the config file syntax."""
    groups = {"run": cfg, "dp": cfg.dp, "model": cfg.model, "data": cfg.data}
    out = {}
    for key, (group, attr, _, *when) in _SCHEMA.items():
        spec = groups[group]
        value = getattr(spec, attr)
        if value is not None and (not when or getattr(spec, when[0]) == when[1]):
            out[key] = value
    return out


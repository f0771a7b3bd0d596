"""Flat key=value run-configuration files.

One option per line, ``key = value``; blank lines and ``#`` comments are
skipped.  The schema is strict: unknown keys and repeated keys are hard
errors, values must parse as the key's type, and every semantic rule of
the config dataclasses applies.  An empty file yields the desk defaults.
"""

from __future__ import annotations

from .dp import DpConfig
from .errors import ParseError, ValidationError
from .protocol import DataSpec, ModelSpec, RunConfig

_TRUE_WORDS = frozenset(("true", "yes", "on", "1"))
_FALSE_WORDS = frozenset(("false", "no", "off", "0"))


def _to_int(text: str) -> int:
    return int(text, 10)


def _to_float(text: str) -> float:
    return float(text)


def _to_bool(text: str) -> bool:
    low = text.lower()
    if low in _TRUE_WORDS:
        return True
    if low in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _to_str(text: str) -> str:
    return text


# key -> (group, field name, converter); groups map onto the nested
# config dataclasses ("run" is RunConfig itself).
_SCHEMA = {
    "n_total": ("run", "n_total", _to_int),
    "k_selected": ("run", "k_selected", _to_int),
    "rounds": ("run", "rounds", _to_int),
    "local_epochs": ("run", "local_epochs", _to_int),
    "batch": ("run", "batch", _to_int),
    "lr": ("run", "lr", _to_float),
    "lambda0": ("run", "lambda0", _to_float),
    "ratio": ("run", "ratio", _to_float),
    "interval": ("run", "interval", _to_int),
    "algorithm": ("run", "algorithm", _to_str),
    "seed": ("run", "seed", _to_int),
    "eval_every": ("run", "eval_every", _to_int),
    "smoothing.divide_threshold_by_k": ("run", "divide_threshold_by_k", _to_bool),
    "dp.clip_c": ("dp", "clip_c", _to_float),
    "dp.sigma": ("dp", "sigma", _to_float),
    "dp.delta": ("dp", "delta", _to_float),
    "dp.c1": ("dp", "c1", _to_float),
    "dp.c2": ("dp", "c2", _to_float),
    "model.kind": ("model", "kind", _to_str),
    "model.hidden": ("model", "hidden", _to_int),
    "model.bias": ("model", "bias", _to_bool),
    "data.source": ("data", "source", _to_str),
    "data.classes": ("data", "classes", _to_int),
    "data.dim": ("data", "dim", _to_int),
    "data.samples": ("data", "samples", _to_int),
    "data.spread": ("data", "spread", _to_float),
    "data.test_fraction": ("data", "test_fraction", _to_float),
    "data.seed": ("data", "seed", _to_int),
    "data.path": ("data", "path", _to_str),
    "partition.mode": ("data", "partition_mode", _to_str),
    "partition.shards_per_client": ("data", "shards_per_client", _to_int),
    "partition.alpha": ("data", "alpha", _to_float),
}


def parse_config_text(text: str, *, source: str = "<config>") -> RunConfig:
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
        group, attr, convert = _SCHEMA[key]
        try:
            groups[group][attr] = convert(value)
        except ValueError:
            raise ParseError(
                f"invalid value {value!r} for key {key!r}", line=lineno
            ) from None
    return RunConfig(
        dp=DpConfig(**groups["dp"]),
        model=ModelSpec(**groups["model"]),
        data=DataSpec(**groups["data"]),
        **groups["run"],
    )


def parse_config(path) -> RunConfig:
    """Parse the config file at ``path``; empty files give desk defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def config_file_text(cfg: RunConfig) -> str:
    """Render a config back to file syntax that re-parses identically."""
    from .protocol import config_to_dict

    lines = []
    for key, value in config_to_dict(cfg).items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"

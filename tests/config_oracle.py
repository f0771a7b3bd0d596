"""Reference config rendering that the tests compare the package against.

Nothing in ``fedceo`` calls these.  ``config_to_dict`` is the hand-written
flat rendering of a :class:`fedceo.config.RunConfig` that the package
replaced with one derived from ``fedceo.config._SCHEMA``; it spells out,
key by key, which keys are written for which ``data.source`` and
``partition.mode``.  ``config_file_text`` renders it in file syntax; the
package has no config-file renderer, so the tests write their config files
with it.
"""

from __future__ import annotations

from dataclasses import fields


def config_to_dict(cfg) -> dict:
    """Flat key -> value mapping mirroring the config file syntax."""
    out = {}
    for f in fields(cfg):
        if f.name in ("dp", "model", "data"):
            continue
        out[f.name] = getattr(cfg, f.name)
    for f in fields(cfg.dp):
        out[f"dp.{f.name}"] = getattr(cfg.dp, f.name)
    for f in fields(cfg.model):
        value = getattr(cfg.model, f.name)
        if value is not None:
            out[f"model.{f.name}"] = value
    data = cfg.data
    out["data.source"] = data.source
    if data.source == "blobs":
        out.update({
            "data.classes": data.classes, "data.dim": data.dim,
            "data.samples": data.samples, "data.spread": data.spread,
        })
    else:
        out["data.path"] = data.path
    out["data.test_fraction"] = data.test_fraction
    if data.seed is not None:
        out["data.seed"] = data.seed
    out["partition.mode"] = data.partition_mode
    if data.partition_mode == "dirichlet":
        out["partition.alpha"] = data.alpha
    return out


def config_file_text(cfg) -> str:
    """Render a config in file syntax, one ``key = value`` per line."""
    lines = []
    for key, value in config_to_dict(cfg).items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"

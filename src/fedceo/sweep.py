"""Parameter sweeps over (value, seed) grids of experiment runs.

A sweep varies exactly one dotted config field (``dp.sigma``, ``lr``,
``algorithm``, ...) over a list of values, runs every (value, seed) cell,
and reports per-cell final accuracy and privacy budget plus per-value
mean/std summaries.  Cells run one after another in (value index, seed
index) order, and every cell's config is built before the first cell runs,
so a bad value fails before any training or file read.  No sweepable field
is a ``data.*`` key, so every cell of a file-backed sweep reads the same
file: the sweep reads it once and hands the loaded dataset to each cell,
which still splits and partitions it by its own seed.  If a cell fails,
the cells completed before the failure ride along on the raised
exception's ``partial_rows`` attribute.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .config import _SCHEMA, RunConfig, convert_value
from .errors import ValidationError
from .protocol import _format_cell, run_experiment, whole_dataset

SWEEPABLE = tuple(
    key for key in _SCHEMA
    if _SCHEMA[key][0] in ("run", "dp") and key != "seed"
)


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    base: RunConfig
    axis: str
    values: tuple
    seeds: tuple

    def __post_init__(self):
        if self.axis not in SWEEPABLE:
            raise ValidationError(
                f"not a sweepable config field (one of {', '.join(sorted(SWEEPABLE))})",
                field=self.axis,
            )
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.values:
            raise ValidationError("needs at least one value", field="values")
        if not all(str(v).isascii() for v in self.values):  # sweep.csv is ASCII
            raise ValidationError("must be ASCII text", field="values")
        if not self.seeds:
            raise ValidationError("needs at least one seed", field="seeds")


class SweepRow(NamedTuple):
    value: object
    seed: int
    acc: float
    loss: float
    eps_p: float


class SweepSummary(NamedTuple):
    value: object
    mean_acc: float
    std_acc: float
    mean_eps: float


class SweepResult(NamedTuple):
    spec: SweepSpec
    rows: list[SweepRow]          # one per (value, seed), in grid order
    summaries: list[SweepSummary]  # one per value


def cell_config(spec: SweepSpec, value, seed: int) -> RunConfig:
    """The base config with the axis field set to ``value`` and the seed set."""
    group, attr = _SCHEMA[spec.axis][:2]
    typed = convert_value(spec.axis, str(value))
    if group == "run":
        return dataclasses.replace(spec.base, seed=int(seed), **{attr: typed})
    dp = dataclasses.replace(spec.base.dp, **{attr: typed})
    return dataclasses.replace(spec.base, seed=int(seed), dp=dp)


def sweep(spec: SweepSpec, threads: int | None = None) -> SweepResult:
    """Run the full (value, seed) grid and summarize per value; each cell
    smooths on up to ``threads`` threads (see :func:`run_experiment`).

    Raises the first cell failure; the rows completed before it (in grid
    order) are attached to the exception as ``partial_rows``.
    """
    grid = [(value, int(seed)) for value in spec.values for seed in spec.seeds]
    configs = [cell_config(spec, value, seed) for value, seed in grid]
    # Blobs are drawn from each cell's data seed; a data file is the same for all.
    full = whole_dataset(spec.base) if spec.base.data.source == "file" else None
    rows = []
    try:
        for (value, seed), cfg in zip(grid, configs):
            last = run_experiment(cfg, full, threads=threads).metrics[-1]
            rows.append(SweepRow(value, seed, last.acc, last.loss, last.eps_p))
    except Exception as exc:
        exc.partial_rows = rows
        raise

    summaries = []
    per_value = len(spec.seeds)
    for vi, value in enumerate(spec.values):
        chunk = rows[vi * per_value:(vi + 1) * per_value]
        accs = np.array([row.acc for row in chunk])
        eps = np.array([row.eps_p for row in chunk])
        summaries.append(SweepSummary(
            value=value,
            mean_acc=float(accs.mean()),
            std_acc=float(accs.std()),
            mean_eps=float(eps.mean()),
        ))
    return SweepResult(spec=spec, rows=rows, summaries=summaries)


def sweep_csv_text(result: SweepResult) -> str:
    """CSV of per-cell rows then per-value summary rows.

    Summary rows reuse the seed column for the literals ``mean``/``std``.
    """
    lines = [f"{result.spec.axis},seed,acc,loss,eps_p"]
    for row in result.rows:
        acc, loss, eps = (_format_cell(x) for x in (row.acc, row.loss, row.eps_p))
        lines.append(f"{row.value},{row.seed},{acc},{loss},{eps}")
    for s in result.summaries:
        acc, eps, std = (_format_cell(x) for x in (s.mean_acc, s.mean_eps, s.std_acc))
        lines.append(f"{s.value},mean,{acc},,{eps}")
        lines.append(f"{s.value},std,{std},,")
    return "\n".join(lines) + "\n"

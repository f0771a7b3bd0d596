"""Parameter sweeps over (value, seed) grids of experiment runs.

A sweep varies exactly one dotted config field (``dp.sigma``, ``lr``,
``algorithm``, ...) over a list of values, runs every (value, seed) cell,
and reports per-cell final accuracy and privacy budget plus per-value
mean/std summaries.  Every cell's config is built before the first cell
runs, so a bad value fails before any training or file read.  No sweepable
field is a ``data.*`` key, so every cell of a file-backed sweep reads the
same file: the sweep reads it once, and each cell, on the caller or on a
forked worker that inherited it, splits and partitions the loaded dataset
by its own seed.

The cells are independent, and a whole run holds the GIL for much of its
time, so a sweep large enough to repay a forked process runs its cells
side by side on a few (:func:`fedceo.parallel.process_map`), each cell on
its share of the thread budget; a smaller one runs them one after another
on the caller.  Rows come back in (value index, seed index) order either
way, and no byte of a result depends on the worker count.  If a cell
fails, or the sweep is interrupted, the cells still running on workers
are stopped, and the rows that came back before it, those of the cells
before it in that order, ride along on the raised exception's
``partial_rows`` attribute.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .config import _SCHEMA, RunConfig, convert_value
from .data import Dataset
from .errors import ValidationError
from .parallel import WorkerLost, process_map, usable_cpus
from .protocol import MetricsRow, _format_cell, run_experiment, whole_dataset

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


# The cell work (cell_work's units) below which a forked worker costs more
# than it saves.  Forking a pool of two workers and joining it took 13 ms
# (median of 15; 9-40 ms) on a 2-CPU host with one BLAS thread, as long as
# 2.6e7 units take in a cell of the cli benchmark's 32-64-10 MLP (5.2e-10 s
# a unit).  A smaller model costs more time a unit, so it repays a worker
# on less work than this.
MIN_WORK_PER_PROCESS = 2**25

# The dataset of the sweep running in this process, set for its cells
# before its workers fork, so they inherit it.
_full: Dataset | None = None


def _run_cell(cell: tuple[RunConfig, int]) -> MetricsRow:
    cfg, threads = cell
    return run_experiment(cfg, _full, threads=threads).metrics[-1]


def cell_work(cfg: RunConfig, full: Dataset | None) -> int:
    """An estimate of a cell's local SGD work: sample gradients taken
    (rounds × selected clients × epochs × a client's train samples) times
    the model's weights."""
    if full is None:
        dim, classes, samples = cfg.data.dim, cfg.data.classes, cfg.data.samples
    else:
        dim, classes, samples = full.dim, full.num_classes, full.n
    hidden = (cfg.model.hidden,) if cfg.model.kind == "mlp" else ()
    widths = (dim, *hidden, classes)
    weights = sum(a * b for a, b in zip(widths, widths[1:]))
    per_client = int(samples * (1 - cfg.data.test_fraction)) // cfg.n_total
    return cfg.rounds * cfg.k_selected * cfg.local_epochs * per_client * weights


def sweep(spec: SweepSpec, threads: int | None = None) -> SweepResult:
    """Run the full (value, seed) grid and summarize per value.  The cells
    share a budget of ``threads`` threads (default:
    :func:`~fedceo.parallel.usable_cpus`): up to that many run side by side
    on forked processes, as many as :data:`MIN_WORK_PER_PROCESS` lets their
    :func:`cell_work` pay for, and each runs its rounds on an equal share
    of the rest (see :func:`run_experiment`).

    Raises the first cell failure in grid order, after every worker has
    ended; the rows of the cells before it are attached to the exception
    as ``partial_rows``, and so they are to an interrupt.  A worker that
    ends without a result raises :class:`~fedceo.parallel.WorkerLost`, a
    ``MemoryError``, naming the first cell without a row.
    """
    global _full
    if threads is None:
        threads = usable_cpus()
    grid = [(value, int(seed)) for value in spec.values for seed in spec.seeds]
    configs = [cell_config(spec, value, seed) for value, seed in grid]
    # Blobs are drawn from each cell's data seed; a data file is the same for all.
    _full = whole_dataset(spec.base) if spec.base.data.source == "file" else None
    work = sum(cell_work(cfg, _full) for cfg in configs)
    rows = []
    try:
        with process_map(threads, len(configs), work, MIN_WORK_PER_PROCESS) as (run, workers):
            cells = [(cfg, threads // workers) for cfg in configs]
            for (value, seed), last in zip(grid, run(_run_cell, cells)):
                rows.append(SweepRow(value, seed, last.acc, last.loss, last.eps_p))
    except BaseException as exc:
        if isinstance(exc, WorkerLost):
            value, seed = grid[len(rows)]
            exc.args = (f"sweep cell {spec.axis}={value} seed={seed}: {exc}",)
        exc.partial_rows = rows
        raise
    finally:
        _full = None

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

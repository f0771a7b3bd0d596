"""Federated simulation: client selection, private local updates, server
aggregation, and periodic low-rank smoothing of the stacked client models.

Three algorithms share one round pipeline:

* ``fedavg``: local SGD, upload start + lr * delta, average.
* ``ldp_fedavg``: the same upload of a delta clipped to norm clip_c plus
  Gaussian noise of std sigma * clip_c / sqrt(K), both applied to the
  round's whole (K, P) array; ``fedavg`` is its unclipped, noiseless limit.
* ``fedceo``: ``ldp_fedavg`` plus, every ``interval`` rounds, a server
  pass that stacks the K uploads into per-layer third-order tensors,
  soft-thresholds every Fourier slice's singular values at
  (1 / (2 * lambda0)) * ratio**(round / interval), and hands each client
  back its slice as a personalized model.  The stacks are views into the
  round's (K, P) upload array, and the pass smooths that array in place.
  Clients selected on the next round resume from their slice; everyone
  else resumes from the global average of the slices.

Every random draw comes from a (seed, round, client, purpose) stream, so
results are identical across replays.  A large round splits its lock
steps, noise draws and smoothing pass over threads, and the thread count
changes no bit of the results or of the run's outputs: ``metrics.csv``,
``final_model.t3r`` and, written last, ``run_manifest.json``.  The config
types a run takes, and their flat rendering in the manifest, live in
:mod:`fedceo.config`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import DataSpec, ModelSpec, RunConfig, config_to_dict  # noqa: F401 (re-exported)
from .data import Dataset, load_dataset, partition, split_train_test, synth_blobs
from .dp import PrivacyBudget, clip_update, gaussianize, privacy_budget, rng_stream
from .errors import NonFinite, ShapeMismatch, ValidationError, write_file
from .models import (
    Model,
    block_views,
    evaluate,
    flatten_params,
    local_train,
    logistic_model,
    mlp_model,
    param_blocks,
    unflatten_params,
)
# tnn goes unused here, but the benchmark tracer wraps fedceo.protocol.tnn by name.
from .tensor import tnn, truncated_tsvd  # noqa: F401

# ---------------------------------------------------------------------------
# Round primitives


def select_clients(n_total: int, k_selected: int, round_no: int, seed: int) -> np.ndarray:
    """Uniform sample of k distinct client ids, sorted ascending."""
    rng = rng_stream(seed, round_no=round_no, purpose="select")
    return np.sort(rng.choice(n_total, size=k_selected, replace=False)).astype(np.int64)


def smoothing_threshold(lambda0: float, ratio: float, passes: int) -> float:
    """(1 / (2 * lambda0)) * ratio**passes, the threshold of the smoothing
    schedule's ``passes``-th pass (round ``passes * interval``)."""
    try:
        return (1.0 / (2.0 * lambda0)) * ratio ** passes
    except OverflowError:  # beyond float64: saturate, shrinking every value to 0
        return math.inf


def stack_clients(uploads: np.ndarray, template: Model) -> list[np.ndarray]:
    """Per-layer third-order stacks of a (K, P) array of K flat uploads.

    Each block of the template's parameter layout (:func:`param_blocks`)
    stacks into rows x cols x K, so a weight is in x out x K and a bias
    1 x out x K; the tensors are views into ``uploads``.
    """
    uploads = np.asarray(uploads, dtype=np.float64)
    if uploads.ndim != 2 or uploads.shape[0] < 1:
        raise ShapeMismatch(f"expected a (K, P) upload array with K >= 1, "
                            f"got shape {uploads.shape}")
    return [np.moveaxis(b, 0, 2) for b in block_views(uploads, template.shapes)]


def unstack_clients(tensors: list[np.ndarray], template: Model) -> np.ndarray:
    """Inverse of :func:`stack_clients`: the (K, P) array of flat uploads.

    The run path no longer calls it, but the benchmark tracer wraps it by
    name."""
    shapes = param_blocks(template.shapes)
    if len(tensors) != len(shapes):
        raise ShapeMismatch(f"expected {len(shapes)} tensors, got {len(tensors)}")
    k = tensors[0].shape[2]
    for i, (t, shape) in enumerate(zip(tensors, shapes)):
        if t.shape != shape + (k,):
            raise ShapeMismatch(
                f"tensor {i} shape {t.shape} does not match layer {shape} x {k}"
            )
    return np.concatenate([np.moveaxis(t, 2, 0).reshape(k, -1) for t in tensors], axis=1)


def server_smooth(uploads: np.ndarray, template: Model, threshold: float,
                  *, threads: int = 1) -> tuple[np.ndarray, float]:
    """Soft-threshold the Fourier spectra of each layer stack of K uploads,
    each stack's slices on up to ``threads`` threads.

    The (K, P) uploads are smoothed in place, each layer stack written back
    over its own entries, and returned, row k being client k's personalized
    model, with the summed tensor nuclear norm of the smoothed stacks.
    Uploads that are not a C-ordered, writeable float64 array are smoothed
    in a float64 copy instead, and left as they were.  If a stack's pass
    raises, the stacks before it are already smoothed; the failing stack
    is unchanged on :class:`NoConvergence` and holds the result that failed
    the check on :class:`NonFinite`.
    """
    uploads = np.require(uploads, np.float64, ["C", "W"])
    norms = [truncated_tsvd(t, threshold, threads=threads, out=t)[1]
             for t in stack_clients(uploads, template)]
    return uploads, float(sum(norms))


# ---------------------------------------------------------------------------
# Experiment loop


class MetricsRow(NamedTuple):
    round: int
    loss: float
    acc: float
    tnn_total: float  # NaN on rows without a smoothing pass
    eps_p: float      # NaN when the algorithm adds no noise


@dataclass
class ExperimentResult:
    config: RunConfig
    metrics: list[MetricsRow]
    final_model: Model
    final_stack: list[np.ndarray]
    budget: PrivacyBudget


def whole_dataset(cfg: RunConfig) -> Dataset:
    """The run's dataset before the train/test split: blobs drawn from
    ``cfg.data_seed``, or the file at ``cfg.data.path``."""
    if cfg.data.source == "blobs":
        return synth_blobs(cfg.data.classes, cfg.data.dim, cfg.data.samples,
                           cfg.data.spread, cfg.data_seed)
    return load_dataset(cfg.data.path)


def build_dataset(cfg: RunConfig, full: Dataset | None = None):
    """(train, test, per-client datasets) for a run config.  ``full`` is
    :func:`whole_dataset` of ``cfg``, already loaded (a sweep reads its data
    file once for all cells); if None it is built here."""
    if full is None:
        full = whole_dataset(cfg)
    try:
        train, test = split_train_test(full, cfg.data.test_fraction, cfg.data_seed)
    except ValidationError as exc:  # it names data.samples, a key files do not take
        if cfg.data.source == "blobs":
            raise
        raise ValidationError(str(exc).partition(": ")[2], field="data.path") from None
    parts = partition(train, cfg.n_total, cfg.data.partition_mode,
                      shards_per_client=cfg.data.shards_per_client,
                      alpha=cfg.data.alpha, seed=cfg.data_seed)
    return train, test, parts


def build_model(cfg: RunConfig, dim: int, classes: int) -> Model:
    """The run's initial model on ``dim`` features.  An MLP whose round of K
    float64 uploads would reach 2**63 bytes, more than NumPy can address,
    raises :class:`ValidationError` naming ``model.hidden`` before anything
    is allocated; the bound covers every weight block's element count too."""
    rng = rng_stream(cfg.seed, purpose="init")
    bias = cfg.model.use_bias
    if cfg.model.kind == "logistic":
        return logistic_model(dim, classes, bias=bias, rng=rng)
    hidden = cfg.model.hidden
    shapes = [(dim, hidden, bias), (hidden, classes, bias)]
    params = sum(r * c for r, c in param_blocks(shapes))
    if cfg.k_selected * params * 8 >= 2 ** 63:
        raise ValidationError(f"{hidden} hidden units on {dim} features make one round's "
                              f"{cfg.k_selected} uploads 2**63 bytes or more",
                              field="model.hidden")
    return mlp_model(dim, hidden, classes, bias=bias, rng=rng)


def _client_uploads(cfg: RunConfig, template: Model, clients: list[int],
                    parts: list[Dataset], starts: list[np.ndarray],
                    round_no: int, threads: int) -> np.ndarray:
    """The round's (K, P) uploads, start + lr * update: the selected clients
    train in lock step from their starts, and each update is the client's
    delta, clipped and noised unless the algorithm is ``fedavg``; training
    and noise run on up to ``threads`` threads.  Raises :class:`NonFinite`
    if any upload is not finite."""
    uploads = np.stack(starts)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        local_train(
            Model(template.shapes, uploads),
            [p.features for p in parts], [p.labels for p in parts],
            cfg.local_epochs, cfg.batch, cfg.lr,
            [rng_stream(cfg.seed, round_no=round_no, client=c, purpose="train")
             for c in clients],
            threads=threads,
        )
        starts = np.stack(starts)  # only now: training is the memory peak
        uploads -= starts  # the clients' deltas
        if cfg.algorithm != "fedavg":
            clip_update(uploads, cfg.dp.clip_c)
            gaussianize(uploads, cfg.dp, cfg.k_selected,
                        [rng_stream(cfg.seed, round_no=round_no, client=c, purpose="noise")
                         for c in clients], threads=threads)
        uploads *= cfg.lr
        uploads += starts
    if not np.isfinite(uploads).all():
        raise NonFinite("upload is not finite: local training diverged")
    return uploads


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(cfg: RunConfig, full: Dataset | None = None, *,
                   threads: int | None = None) -> ExperimentResult:
    """Run the configured algorithm for cfg.rounds rounds, on ``full`` if
    given, else on :func:`whole_dataset` of ``cfg`` (see
    :func:`build_dataset`).

    Metrics rows appear every cfg.eval_every rounds and always on the final
    round: global-model loss on the training split, accuracy on the held-out
    split, summed tensor nuclear norm of the (smoothed) stack when the row
    lands on a smoothing round, and the closed-form privacy budget.
    Lock steps, noise draws and smoothing passes run on up to ``threads``
    threads (default: :func:`usable_cpus`), each only when its round is
    large enough to gain; no result depends on the count.
    """
    if threads is None:
        threads = usable_cpus()
    train, test, parts = build_dataset(cfg, full)
    template = build_model(cfg, train.dim, train.num_classes)
    global_vec = flatten_params(template)
    budget = privacy_budget(cfg.dp, cfg.n_total, cfg.k_selected, cfg.rounds)
    eps_p = budget.epsilon if cfg.algorithm != "fedavg" else math.nan

    # Client -> its slice of the last round's smoothing pass, empty unless
    # that round smoothed: a client resumes from its slice, else from the
    # global average.
    personalized: dict[int, np.ndarray] = {}
    metrics: list[MetricsRow] = []

    for round_no in range(1, cfg.rounds + 1):
        clients = [int(c) for c in
                   select_clients(cfg.n_total, cfg.k_selected, round_no, cfg.seed)]
        uploads = _client_uploads(
            cfg, template, clients, [parts[c] for c in clients],
            [personalized.get(c, global_vec) for c in clients], round_no, threads,
        )
        personalized = {}

        tnn_total = math.nan
        if cfg.algorithm == "fedceo" and round_no % cfg.interval == 0:
            threshold = smoothing_threshold(cfg.lambda0, cfg.ratio, round_no // cfg.interval)
            uploads, tnn_total = server_smooth(uploads, template, threshold,
                                                threads=threads)
            personalized = dict(zip(clients, uploads))
        global_vec = uploads.mean(axis=0)

        if round_no % cfg.eval_every == 0 or round_no == cfg.rounds:
            global_model = unflatten_params(template, global_vec)
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                loss, _ = evaluate(global_model, train.features, train.labels)
                test_loss, acc = evaluate(global_model, test.features, test.labels)
            if not (math.isfinite(loss) and math.isfinite(test_loss)):
                raise NonFinite("global model's loss is not finite: training diverged")
            metrics.append(MetricsRow(round_no, loss, acc, tnn_total, eps_p))

    return ExperimentResult(
        config=cfg,
        metrics=metrics,
        final_model=unflatten_params(template, global_vec),
        final_stack=stack_clients(uploads, template),
        budget=budget,
    )


# ---------------------------------------------------------------------------
# Run outputs


def _format_cell(value: float) -> str:
    """A CSV number cell: empty for NaN, else the float's round-trip repr."""
    return "" if math.isnan(value) else repr(float(value))


def metrics_csv_text(metrics: list[MetricsRow]) -> str:
    lines = ["round,loss,acc,tnn_total,eps_p"]
    for row in metrics:
        lines.append(
            f"{row.round},{_format_cell(row.loss)},{_format_cell(row.acc)},"
            f"{_format_cell(row.tnn_total)},{_format_cell(row.eps_p)}"
        )
    return "\n".join(lines) + "\n"


def write_run_outputs(result: ExperimentResult, out_dir) -> None:
    """metrics.csv, final_model.t3r, then run_manifest.json under out_dir;
    each is a function of ``result`` alone."""
    from .tensor import save_tensors

    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.realpath(os.path.join(out_dir, "run_manifest.json"))
    if os.path.lexists(manifest_path):  # a manifest only sits beside its own run
        os.remove(manifest_path)
    write_file(os.path.join(out_dir, "metrics.csv"), [metrics_csv_text(result.metrics)])
    save_tensors(os.path.join(out_dir, "final_model.t3r"), result.final_stack)
    manifest = {
        "package_version": __version__,
        "config": config_to_dict(result.config),
        "layer_shapes": [list(s) for s in result.final_model.shapes],
        "privacy": {
            "epsilon": result.budget.epsilon,
            "lemma_valid": result.budget.lemma_valid,
            "validity_bound": result.budget.validity_bound,
        },
    }
    write_file(manifest_path, [json.dumps(manifest, indent=2, sort_keys=True), "\n"])

"""Federated simulation: client selection, private local updates, server
aggregation, and periodic low-rank smoothing of the stacked client models.

Three algorithms share one round pipeline:

* ``fedavg``: local SGD, upload start + lr * delta, average.  The same
  server-side lr scaling as the private variants, so it is exactly the
  noiseless/unclipped limit of ``ldp_fedavg``.
* ``ldp_fedavg``: deltas are norm-clipped and carry Gaussian noise of
  std sigma * clip_c / sqrt(K) before the same aggregation.
* ``fedceo``: ``ldp_fedavg`` plus, every ``interval`` rounds, a server
  pass that stacks the K uploads into per-layer third-order tensors,
  soft-thresholds every Fourier slice's singular values at
  (1 / (2 * lambda0)) * ratio**(round / interval), and hands each client
  back its slice as a personalized model.  Clients selected on the next
  round resume from that slice; everyone else resumes from the global
  average of the slices.

Every random draw comes from a (seed, round, client, purpose) stream, so
results are identical across replays.  The run's outputs are
``metrics.csv``, ``final_model.t3r`` and ``run_manifest.json``; the config
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
from .errors import ArchMismatch, NotSmoothingRound, ShapeMismatch
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
    if not 1 <= k_selected <= n_total:
        raise ValueError(f"need 1 <= k_selected <= n_total, got {k_selected}/{n_total}")
    rng = rng_stream(seed, round_no=round_no, purpose="select")
    return np.sort(rng.choice(n_total, size=k_selected, replace=False)).astype(np.int64)


def smoothing_threshold(lambda0: float, ratio: float, round_no: int, interval: int) -> float:
    """(1 / (2 * lambda0)) * ratio**(round_no / interval), defined only on
    rounds the smoothing schedule fires on."""
    if lambda0 <= 0:
        raise ValueError(f"lambda0 must be positive, got {lambda0}")
    if ratio < 1.0:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    if round_no < 1 or round_no % interval != 0:
        raise NotSmoothingRound(
            f"round {round_no} is not a multiple of interval {interval}"
        )
    return (1.0 / (2.0 * lambda0)) * ratio ** (round_no // interval)


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
    """Inverse of :func:`stack_clients`: the (K, P) array of flat uploads."""
    shapes = param_blocks(template.shapes)
    if len(tensors) != len(shapes):
        raise ArchMismatch(f"expected {len(shapes)} tensors, got {len(tensors)}")
    k = tensors[0].shape[2]
    for i, (t, shape) in enumerate(zip(tensors, shapes)):
        if t.shape != shape + (k,):
            raise ArchMismatch(
                f"tensor {i} shape {t.shape} does not match layer {shape} x {k}"
            )
    return np.concatenate([np.moveaxis(t, 2, 0).reshape(k, -1) for t in tensors], axis=1)


def server_smooth(uploads: np.ndarray, template: Model,
                  threshold: float) -> tuple[np.ndarray, float]:
    """Soft-threshold the Fourier spectra of each layer stack of K uploads.

    Returns the (K, P) smoothed uploads, row k being client k's
    personalized model, and the summed tensor nuclear norm of the smoothed
    stacks.
    """
    smoothed, norms = zip(*(truncated_tsvd(t, threshold)
                            for t in stack_clients(uploads, template)))
    return unstack_clients(list(smoothed), template), float(sum(norms))


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
    layer_shapes: list[tuple[int, int, bool]]


def build_dataset(cfg: RunConfig):
    """(train, test, per-client datasets) for a run config."""
    if cfg.data.source == "blobs":
        full = synth_blobs(cfg.data.classes, cfg.data.dim, cfg.data.samples,
                           cfg.data.spread, cfg.data_seed)
    else:
        full = load_dataset(cfg.data.path)
    train, test = split_train_test(full, cfg.data.test_fraction, cfg.data_seed)
    parts = partition(train, cfg.n_total, cfg.data.partition_mode,
                      shards_per_client=cfg.data.shards_per_client,
                      alpha=cfg.data.alpha, seed=cfg.data_seed)
    return train, test, parts


def build_model(cfg: RunConfig, dim: int, classes: int) -> Model:
    rng = rng_stream(cfg.seed, purpose="init")
    if cfg.model.kind == "logistic":
        return logistic_model(dim, classes, bias=cfg.model.use_bias, rng=rng)
    return mlp_model(dim, cfg.model.hidden, classes, bias=cfg.model.use_bias, rng=rng)


def _client_uploads(cfg: RunConfig, template: Model, clients: list[int],
                    parts: list[Dataset], starts: list[np.ndarray],
                    round_no: int) -> np.ndarray:
    """The round's (K, P) uploads: the selected clients train in lock step
    from their starts, then each row becomes its client's upload."""
    uploads = np.stack(starts)
    local_train(
        Model(template.shapes, uploads),
        [p.features for p in parts], [p.labels for p in parts],
        cfg.local_epochs, cfg.batch, cfg.lr,
        [rng_stream(cfg.seed, round_no=round_no, client=c, purpose="train")
         for c in clients],
    )
    for row, start, client in zip(uploads, starts, clients):
        row -= start  # the client's delta
        if cfg.algorithm == "fedavg":
            row *= cfg.lr
            row += start
        else:
            clipped = clip_update(row, cfg.dp.clip_c)
            noise_rng = rng_stream(cfg.seed, round_no=round_no, client=client,
                                   purpose="noise")
            row[:] = gaussianize(start, clipped, cfg.lr, cfg.dp, cfg.k_selected, noise_rng)
    return uploads


def run_experiment(cfg: RunConfig) -> ExperimentResult:
    """Run the configured algorithm for cfg.rounds rounds.

    Metrics rows appear every cfg.eval_every rounds and always on the final
    round: global-model loss on the training split, accuracy on the held-out
    split, summed tensor nuclear norm of the (smoothed) stack when the row
    lands on a smoothing round, and the closed-form privacy budget.
    """
    train, test, parts = build_dataset(cfg)
    template = build_model(cfg, train.dim, train.num_classes)
    global_vec = flatten_params(template)
    budget = privacy_budget(cfg.dp, cfg.n_total, cfg.k_selected, cfg.rounds)
    eps_p = budget.epsilon if cfg.algorithm != "fedavg" else math.nan

    personalized: dict[int, np.ndarray] = {}
    personalized_round = -1
    metrics: list[MetricsRow] = []

    def start_for(client: int, round_no: int) -> np.ndarray:
        if (cfg.algorithm == "fedceo" and personalized_round == round_no - 1
                and client in personalized):
            return personalized[client]
        return global_vec

    for round_no in range(1, cfg.rounds + 1):
        clients = [int(c) for c in
                   select_clients(cfg.n_total, cfg.k_selected, round_no, cfg.seed)]
        uploads = _client_uploads(
            cfg, template, clients, [parts[c] for c in clients],
            [start_for(c, round_no) for c in clients], round_no,
        )

        tnn_total = math.nan
        if cfg.algorithm == "fedceo" and round_no % cfg.interval == 0:
            threshold = smoothing_threshold(
                cfg.lambda0, cfg.ratio, round_no, cfg.interval
            )
            if cfg.divide_threshold_by_k:
                threshold /= cfg.k_selected
            uploads, tnn_total = server_smooth(uploads, template, threshold)
            personalized = dict(zip(clients, uploads))
            personalized_round = round_no
        global_vec = uploads.mean(axis=0)

        if round_no % cfg.eval_every == 0 or round_no == cfg.rounds:
            global_model = unflatten_params(template, global_vec)
            loss, _ = evaluate(global_model, train.features, train.labels)
            _, acc = evaluate(global_model, test.features, test.labels)
            metrics.append(MetricsRow(round_no, loss, acc, tnn_total, eps_p))

    return ExperimentResult(
        config=cfg,
        metrics=metrics,
        final_model=unflatten_params(template, global_vec),
        final_stack=stack_clients(uploads, template),
        budget=budget,
        layer_shapes=template.shapes,
    )


# ---------------------------------------------------------------------------
# Run outputs


def _format_cell(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return ""
    return repr(float(value))


def metrics_csv_text(metrics: list[MetricsRow]) -> str:
    lines = ["round,loss,acc,tnn_total,eps_p"]
    for row in metrics:
        lines.append(
            f"{row.round},{_format_cell(row.loss)},{_format_cell(row.acc)},"
            f"{_format_cell(row.tnn_total)},{_format_cell(row.eps_p)}"
        )
    return "\n".join(lines) + "\n"


def write_run_outputs(result: ExperimentResult, out_dir, *, threads: int) -> None:
    """metrics.csv, final_model.t3r, and run_manifest.json under out_dir."""
    from .tensor import save_tensors

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="ascii") as fh:
        fh.write(metrics_csv_text(result.metrics))
    save_tensors(os.path.join(out_dir, "final_model.t3r"), result.final_stack)
    manifest = {
        "package_version": __version__,
        "config": config_to_dict(result.config),
        "layer_shapes": [list(s) for s in result.layer_shapes],
        "privacy": {
            "epsilon": result.budget.epsilon,
            "lemma_valid": result.budget.lemma_valid,
            "validity_bound": result.budget.validity_bound,
        },
        "threads": threads,
    }
    with open(os.path.join(out_dir, "run_manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

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
results are identical across replays.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import __version__
from .data import Dataset, load_dataset, partition, split_train_test, synth_blobs
from .dp import DpConfig, PrivacyBudget, clip_update, gaussianize, privacy_budget, rng_stream
from .errors import ArchMismatch, NotSmoothingRound, ShapeMismatch, ValidationError
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
from .tensor import tnn, truncated_tsvd

ALGORITHMS = ("fedavg", "ldp_fedavg", "fedceo")

# ---------------------------------------------------------------------------
# Configuration


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
    shards_per_client: int = 2
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
        if not (self.spread >= 0 and math.isfinite(self.spread)):
            raise ValidationError("must be finite and >= 0", field="data.spread")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValidationError("must be in (0, 1)", field="data.test_fraction")
        if self.seed is not None and self.seed < 0:
            raise ValidationError("must be >= 0", field="data.seed")
        if self.partition_mode not in ("iid", "label_shard", "dirichlet"):
            raise ValidationError(
                f"unknown mode {self.partition_mode!r}", field="partition.mode"
            )
        if self.shards_per_client < 1:
            raise ValidationError("must be >= 1", field="partition.shards_per_client")
        if self.alpha <= 0:
            raise ValidationError("must be > 0", field="partition.alpha")


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
    divide_threshold_by_k: bool = False
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
    smoothed = [truncated_tsvd(t, threshold) for t in stack_clients(uploads, template)]
    tnn_total = float(sum(tnn(t) for t in smoothed))
    return unstack_clients(smoothed, template), tnn_total


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


def _client_update(cfg: RunConfig, template: Model, part: Dataset,
                   start: np.ndarray, round_no: int, client: int) -> np.ndarray:
    """One client's upload vector for this round."""
    model = unflatten_params(template, start)
    trained = local_train(
        model, part.features, part.labels, cfg.local_epochs, cfg.batch, cfg.lr,
        rng_stream(cfg.seed, round_no=round_no, client=client, purpose="train"),
    )
    delta = flatten_params(trained) - start
    if cfg.algorithm == "fedavg":
        return start + cfg.lr * delta
    clipped = clip_update(delta, cfg.dp.clip_c)
    noise_rng = rng_stream(cfg.seed, round_no=round_no, client=client, purpose="noise")
    return gaussianize(start, clipped, cfg.lr, cfg.dp, cfg.k_selected, noise_rng)


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
        selected = select_clients(cfg.n_total, cfg.k_selected, round_no, cfg.seed)
        uploads = np.stack([
            _client_update(cfg, template, parts[int(c)], start_for(int(c), round_no),
                           round_no, int(c))
            for c in selected
        ])

        tnn_total = math.nan
        if cfg.algorithm == "fedceo" and round_no % cfg.interval == 0:
            threshold = smoothing_threshold(
                cfg.lambda0, cfg.ratio, round_no, cfg.interval
            )
            if cfg.divide_threshold_by_k:
                threshold /= cfg.k_selected
            uploads, tnn_total = server_smooth(uploads, template, threshold)
            personalized = {int(c): row for c, row in zip(selected, uploads)}
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


def config_to_dict(cfg: RunConfig) -> dict:
    """Flat key -> value mapping mirroring the config file syntax."""
    out = {}
    for f in fields(cfg):
        if f.name in ("dp", "model", "data"):
            continue
        key = "smoothing.divide_threshold_by_k" if f.name == "divide_threshold_by_k" else f.name
        out[key] = getattr(cfg, f.name)
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
    if data.partition_mode == "label_shard":
        out["partition.shards_per_client"] = data.shards_per_client
    if data.partition_mode == "dirichlet":
        out["partition.alpha"] = data.alpha
    return out


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

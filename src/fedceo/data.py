"""Synthetic datasets, client partitioning, and the ASCII dataset format.

The file format is one header line ``d num_classes num_samples`` followed
by one ``label f1 ... fd`` line per sample, plain ASCII decimals.  Floats
are written with enough digits to round-trip float64 exactly.  A header
must declare d >= 1 and 2 <= num_classes <= num_samples, and the reader
sizes nothing by it: each line is checked and parsed as it is read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from math import isfinite
from typing import NamedTuple

import numpy as np

from .dp import rng_stream
from .errors import ParseError, ShapeMismatch, ValidationError, naming_file, write_file

PARTITION_MODES = ("iid", "dirichlet")


def check_samples(features: np.ndarray, labels: np.ndarray, num_classes: int) -> None:
    """Raise :class:`ShapeMismatch` unless ``features`` (n, d) and ``labels``
    (n,) are n >= 1 samples whose labels lie in [0, num_classes)."""
    if features.ndim != 2:
        raise ShapeMismatch(f"features must be 2-d, got {features.shape}")
    if labels.shape != features.shape[:1]:
        raise ShapeMismatch(f"labels {labels.shape} must be 1-d, one per feature row")
    if labels.size == 0:
        raise ShapeMismatch("no samples")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ShapeMismatch("label outside [0, num_classes)")


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        check_samples(self.features, self.labels, self.num_classes)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


def synth_blobs(num_classes: int, dim: int, samples: int, spread: float, seed: int) -> Dataset:
    """Gaussian blobs: one random center per class, isotropic noise of the
    given spread, exactly samples/num_classes points per class.  The
    arguments obey :class:`fedceo.config.DataSpec`; a spread so large that
    a sample overflows float64 raises :class:`ValidationError`."""
    rng = rng_stream(seed, purpose="data")
    per_class = samples // num_classes
    centers = rng.standard_normal((num_classes, dim))
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    noise = rng.standard_normal((samples, dim))
    with np.errstate(over="ignore"):
        features = centers[labels] + spread * noise
    if not np.isfinite(features).all():
        raise ValidationError(f"{spread} overflows float64 in a sample", field="data.spread")
    return Dataset(features, labels, num_classes)


def split_train_test(data: Dataset, test_fraction: float, seed: int):
    """Stratified split; per class the same fraction is held out."""
    rng = rng_stream(seed, round_no=1, purpose="data")
    test_idx = []
    for c in np.flatnonzero(np.bincount(data.labels)):  # the labels present
        members = np.flatnonzero(data.labels == c)
        take = int(round(members.size * test_fraction))
        take = min(max(take, 1), members.size - 1) if members.size > 1 else 0
        test_idx.append(rng.permutation(members)[:take])
    test_idx = np.sort(np.concatenate(test_idx))
    if test_idx.size == 0:
        raise ValidationError("no class has two samples, so the test split would be empty",
                              field="data.samples")
    mask = np.zeros(data.n, dtype=bool)
    mask[test_idx] = True
    return data.subset(np.flatnonzero(~mask)), data.subset(test_idx)


# ---------------------------------------------------------------------------
# Client partitioning


class Client(NamedTuple):
    """One client's samples: its row indices into the split it was dealt
    from, which stays the one copy of the features and labels."""
    rows: np.ndarray  # (n,) int64

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def partition(labels: np.ndarray, n_clients: int, mode: str, *,
              alpha: float = 0.5, seed: int = 0) -> list[Client]:
    """The ``n_clients`` clients that the samples labelled ``labels`` are
    dealt to, each a :class:`Client` of its rows; together their rows
    cover range(len(labels)) once.

    Every client receives at least one sample regardless of mode: a
    Dirichlet draw that leaves someone empty steals singletons from the
    largest client.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n_clients > n:
        raise ValidationError(f"{n_clients} clients but only {n} samples to split",
                              field="n_total")
    if mode not in PARTITION_MODES:
        raise ValueError(f"unknown partition mode {mode!r}")
    rng = rng_stream(seed, purpose="partition")

    if mode == "iid":
        parts = np.array_split(rng.permutation(n), n_clients)
    else:  # dirichlet
        parts = [[] for _ in range(n_clients)]
        for c in np.flatnonzero(np.bincount(labels)):  # the labels present
            members = rng.permutation(np.flatnonzero(labels == c))
            weights = rng.dirichlet(np.full(n_clients, alpha))
            cuts = (np.cumsum(weights)[:-1] * members.size).astype(int)
            for k, chunk in enumerate(np.split(members, cuts)):
                parts[k].append(chunk)
        parts = [
            np.concatenate(p) if p else np.array([], dtype=np.int64) for p in parts
        ]

    parts = [np.asarray(p, dtype=np.int64) for p in parts]
    # repair empty clients so every partition is usable for training
    while any(p.size == 0 for p in parts):
        donor = int(np.argmax([p.size for p in parts]))
        needy = next(i for i, p in enumerate(parts) if p.size == 0)
        parts[needy] = parts[donor][-1:]
        parts[donor] = parts[donor][:-1]
    return [Client(p) for p in parts]


# ---------------------------------------------------------------------------
# ASCII serialization


def save_dataset(path, data: Dataset) -> None:
    rows = zip(data.features, data.labels)
    write_file(path, chain([f"{data.dim} {data.num_classes} {data.n}\n"], (
        f"{int(label)} {' '.join(repr(float(v)) for v in row)}\n" for row, label in rows)))


def load_dataset(path) -> Dataset:
    """The dataset file at ``path``, read in one pass that sizes nothing by
    the header; a malformed one raises :class:`ParseError` naming the file
    and the line (lines end where ``str.splitlines()`` ends them)."""
    with open(path, "r", encoding="ascii") as fh, naming_file(path):
        lines = enumerate((ln for text in fh for ln in text.splitlines()), start=1)
        lineno, header = next(lines, (1, None))
        if header is None:
            raise ParseError("empty dataset file", line=1)
        head = header.split()
        if len(head) != 3:
            raise ParseError("header must be 'dim num_classes num_samples'", line=1)
        try:
            dim, num_classes, count = (int(tok) for tok in head)
        except ValueError:
            raise ParseError("header fields must be integers", line=1) from None
        if count < 1:
            raise ParseError("dataset file declares zero samples", line=1)
        if dim < 1:
            raise ParseError(f"header dim must be >= 1, got {dim}", line=1)
        if not 2 <= num_classes <= count:
            raise ParseError(f"header num_classes must be in [2, num_samples = {count}], "
                             f"got {num_classes}", line=1)
        features, labels = array("d"), []
        for lineno, ln in lines:
            tokens = ln.split()
            if not tokens:
                continue
            if len(labels) == count:
                raise ParseError(f"header declares {count} samples; file has more", line=lineno)
            if len(tokens) != dim + 1:
                raise ParseError(f"expected {dim + 1} fields, got {len(tokens)}", line=lineno)
            try:
                label = int(tokens[0])
                row = [float(tok) for tok in tokens[1:]]
            except ValueError:
                raise ParseError("malformed number", line=lineno) from None
            if not 0 <= label < num_classes:
                raise ParseError(f"label {label} outside [0, {num_classes})", line=lineno)
            if not all(map(isfinite, row)):
                raise ParseError("non-finite feature value", line=lineno)
            labels.append(label)
            features.extend(row)
        if len(labels) != count:
            raise ParseError(f"header declares {count} samples but file has {len(labels)}",
                             line=lineno)
        return Dataset(np.frombuffer(features).reshape(count, dim), labels, num_classes)

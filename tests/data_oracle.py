"""Reference dataset reader and writer that the tests compare the package
against.

Nothing in ``fedceo`` calls these.  :func:`load_dataset` is
``fedceo.data.load_dataset`` as it was before the one-pass reader took it
over: it reads the whole file, splits it with ``str.splitlines()``, counts
the non-blank lines against the header, checks every line's field count,
and only then allocates and parses the samples.  For any file,
:func:`fedceo.data.load_dataset` must give the same verdict: the same
arrays bit for bit, or a ``ParseError`` naming the file.

:func:`save_dataset` is ``fedceo.data.save_dataset`` as it was before the
rows were formatted in chunks, on worker processes for a large file: one
row at a time, on the caller.  For any dataset and worker count,
:func:`fedceo.data.save_dataset` must write the same bytes.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from fedceo.data import Dataset
from fedceo.errors import ParseError, naming_file, write_file


def save_dataset(path, data: Dataset) -> None:
    rows = zip(data.features, data.labels)
    write_file(path, chain([f"{data.dim} {data.num_classes} {data.n}\n"], (
        f"{int(label)} {' '.join(repr(float(v)) for v in row)}\n" for row, label in rows)))


def load_dataset(path) -> Dataset:
    """The dataset file at ``path``; a malformed one raises
    :class:`ParseError` naming the file and the line."""
    with open(path, "r", encoding="ascii") as fh, naming_file(path):
        lines = fh.read().splitlines()
        if not lines:
            raise ParseError("empty dataset file", line=1)
        head = lines[0].split()
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
        body = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
        if len(body) != count:
            raise ParseError(
                f"header declares {count} samples but file has {len(body)}",
                line=len(lines),
            )
        for lineno, ln in body:  # before allocating what the header claims
            got = len(ln.split())
            if got != dim + 1:
                raise ParseError(f"expected {dim + 1} fields, got {got}", line=lineno)
        features = np.empty((count, dim))
        labels = np.empty(count, dtype=np.int64)
        for i, (lineno, ln) in enumerate(body):
            tokens = ln.split()
            try:
                label = int(tokens[0])
                row = [float(tok) for tok in tokens[1:]]
            except ValueError:
                raise ParseError("malformed number", line=lineno) from None
            if not 0 <= label < num_classes:
                raise ParseError(f"label {label} outside [0, {num_classes})", line=lineno)
            labels[i] = label
            features[i] = row
        finite = np.isfinite(features).all(axis=1)
        if not finite.all():
            raise ParseError("non-finite feature value", line=body[np.argmin(finite)][0])
        return Dataset(features, labels, num_classes)

"""Diagnostics over trained runs: a per-class/per-client roughness map of
the last linear layer, per-frequency singular-value curves of a stacked
layer tensor, and a closed-form gradient-inversion attack on a
softmax-linear head.

Everything here is a pure function of its inputs; callers may fan these
out across seeds or runs freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradient, NonFinite, ShapeMismatch
from .tensor import as_tensor3, fourier_svd

_BIAS_GRAD_FLOOR = 1e-9


@dataclass(frozen=True)
class SmoothnessMap:
    """Per-class, per-client roughness of the last linear layer.

    ``matrix[j, k]`` is the mean squared distance between client k's row
    for class j and every other client's row for that class; all entries
    are nonnegative and the whole map is zero exactly when the clients
    share identical rows.
    """

    matrix: np.ndarray  # (num_classes, K)

    @property
    def total(self) -> float:
        return float(self.matrix.sum())


def smoothness_map(last_layer_weights: list[np.ndarray]) -> SmoothnessMap:
    """Roughness map of K client matrices whose rows are per-class vectors.

    Cell (j, k) = (1/(K-1)) * sum over l != k of
    ||row_j(W_k) - row_j(W_l)||^2 -- the complete-graph Laplacian quadratic
    form, attributed per client.  With a single client the map is zero.
    """
    if not last_layer_weights:
        raise ShapeMismatch("need at least one client matrix")
    mats = [np.asarray(w, dtype=np.float64) for w in last_layer_weights]
    shape = mats[0].shape
    if len(shape) != 2:
        raise ShapeMismatch(f"client matrices must be 2-d, got {shape}")
    for w in mats[1:]:
        if w.shape != shape:
            raise ShapeMismatch(f"client shapes differ: {shape} vs {w.shape}")
    stack = np.stack(mats, axis=0)                      # (K, classes, features)
    k = stack.shape[0]
    if k == 1:
        return SmoothnessMap(matrix=np.zeros((shape[0], 1)))
    # ||row_jk - row_jl||^2 summed over l, via the expanded square.
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("kjf,kjf->kj", stack, stack)         # (K, classes)
        total_sq = sq.sum(axis=0)                           # (classes,)
        total_row = stack.sum(axis=0)                       # (classes, features)
        cross = np.einsum("kjf,jf->kj", stack, total_row)   # (K, classes)
        dist = k * sq + total_sq[None, :] - 2.0 * cross     # sum_l ||row_k - row_l||^2
    matrix = np.maximum(dist, 0.0).T / (k - 1)
    if not np.all(np.isfinite(matrix)):
        raise NonFinite("smoothness map overflows float64 for these weights")
    return SmoothnessMap(matrix=matrix)


@dataclass(frozen=True)
class SpectralCurves:
    """Sorted singular values of every mode-3 Fourier slice of a stack."""

    curves: np.ndarray  # (n3, min(n1, n2)), rows nonincreasing

    @property
    def top(self) -> np.ndarray:
        """Leading singular value per slice."""
        return self.curves[:, 0].copy()


def spectral_curves(t: np.ndarray) -> SpectralCurves:
    """Per-frequency singular-value curves of a third-order stack.

    Slice 0 of the Fourier transform is the sum of the frontal slices, so
    for K near-identical clients its curve towers over all others.  Slice
    j is the conjugate of slice n3 - j and has the same curve, so only the
    distinct slices are decomposed and slice j reads row min(j, n3 - j).
    """
    arr = as_tensor3(t)
    n3 = arr.shape[2]
    j = np.arange(n3)
    sv = fourier_svd(arr, compute_uv=False)
    return SpectralCurves(curves=sv[np.minimum(j, n3 - j)])


def invert_linear_gradient(grad_w: np.ndarray, grad_b: np.ndarray) -> np.ndarray:
    """Recover the input behind a single-sample softmax-linear gradient.

    For one sample the weight gradient is the outer product x (p - y)^T
    and the bias gradient is (p - y), so any class j with a nonzero bias
    gradient yields x = grad_w[:, j] / grad_b[j] exactly.  The class with
    the largest bias-gradient magnitude is used; gradient scaling cancels.
    """
    gw = np.asarray(grad_w, dtype=np.float64)
    gb = np.asarray(grad_b, dtype=np.float64)
    if gw.ndim != 2 or gb.ndim != 1 or gw.shape[1] != gb.shape[0]:
        raise ShapeMismatch(
            f"need (features x classes) and (classes,), got {gw.shape} and {gb.shape}"
        )
    j = int(np.argmax(np.abs(gb)))
    if abs(gb[j]) <= _BIAS_GRAD_FLOOR:
        raise DegenerateGradient(
            f"all bias-gradient entries are below {_BIAS_GRAD_FLOOR}"
        )
    return gw[:, j] / gb[j]

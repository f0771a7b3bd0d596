"""Diagnostics over trained runs: a per-class/per-client roughness map of
the last linear layer, per-frequency singular-value curves of a stacked
layer tensor, and a closed-form gradient-inversion attack on a
softmax-linear head.

:func:`analyze_run` reads a finished run's directory and renders the
three files of ``fedceo analyze``, writing none of them.  Every other
function here is a pure function of its inputs.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .dp import rng_stream
from .errors import DegenerateGradient, NonFinite, ParseError, ShapeMismatch
from .models import Model, gradient, param_blocks, unflatten_params
from .tensor import as_tensor3, fourier_singular_values, load_tensors

_BIAS_GRAD_FLOOR = 1e-9
ATTACK_SIGMAS = (0.0, 0.5, 1.0, 2.0)
ATTACK_SEEDS = 20


def smoothness_map(last_w) -> np.ndarray:
    """Roughness map of a (features, classes, K) stack of K clients'
    last-layer weights, as a (classes, K) array.

    Cell (j, k) = (1/(K-1)) * sum over l != k of
    ||w[:, j, k] - w[:, j, l]||^2 -- the complete-graph Laplacian quadratic
    form, attributed per client.  Every cell is nonnegative, and the map is
    zero exactly when the clients agree; with a single client it is zero.
    """
    w = np.asarray(last_w, dtype=np.float64)
    if w.ndim != 3:
        raise ShapeMismatch(f"need a (features, classes, K) stack, got shape {w.shape}")
    k = w.shape[2]
    if k == 1:
        return np.zeros((w.shape[1], 1))
    # (K, classes, features), each client's matrix transposed in memory:
    # einsum's rounding, and so the map's bytes, depend on that layout.
    stack = np.ascontiguousarray(np.moveaxis(w, 2, 0)).swapaxes(1, 2)
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
    return matrix


def spectral_curves(t) -> np.ndarray:
    """Per-frequency singular-value curves of a third-order stack: an
    (n3, min(n1, n2)) array, each row nonincreasing.

    Slice 0 of the Fourier transform is the sum of the frontal slices, so
    for K near-identical clients its curve towers over all others.  Slice
    j is the conjugate of slice n3 - j and has the same curve, so only the
    distinct slices are decomposed and slice j reads row min(j, n3 - j).
    """
    arr = as_tensor3(t)
    n3 = arr.shape[2]
    j = np.arange(n3)
    return fourier_singular_values(arr)[np.minimum(j, n3 - j)]


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


def _attack_report(last_w: np.ndarray, seed: int) -> dict:
    """Closed-form inversion demo on a bias-on softmax head.

    A probe input runs through a head whose weights are the mean of the
    client stack and whose bias is zero; the single-sample gradient is
    inverted exactly, then under per-entry Gaussian noise at multiples of
    the gradient's own RMS.
    """
    features, classes, _ = last_w.shape
    head = Model([(features, classes, True)], np.zeros((features + 1) * classes))
    head.layers[0].weight[:] = last_w.mean(axis=2)
    probe_rng = rng_stream(seed, round_no=1, purpose="attack")
    x_true = probe_rng.standard_normal(features)
    y = np.array([int(probe_rng.integers(classes))])
    grad = unflatten_params(head, gradient(head, x_true[None, :], y))
    grad_w, grad_b = grad.layers[0].weight, grad.layers[0].bias

    def cosine(a, b):
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        return float(a @ b / denom) if denom > 0 else 0.0

    noiseless_cosine = cosine(invert_linear_gradient(grad_w, grad_b), x_true)
    scale = float(np.sqrt(np.mean(grad_w**2)))
    medians = []
    for sigma in ATTACK_SIGMAS:
        errors = []
        for trial in range(ATTACK_SEEDS):
            rng = rng_stream(seed, round_no=2, client=trial, purpose="attack")
            gw = grad_w + rng.standard_normal(grad_w.shape) * sigma * scale
            gb = grad_b + rng.standard_normal(grad_b.shape) * sigma * scale
            try:
                recovered = invert_linear_gradient(gw, gb)
                errors.append(1.0 - cosine(recovered, x_true))
            except DegenerateGradient:
                errors.append(1.0)
        medians.append(float(np.median(errors)))
    return {
        "noiseless_cosine": noiseless_cosine,
        "per_sigma": [{"sigma": sigma, "median_error": median}
                      for sigma, median in zip(ATTACK_SIGMAS, medians)],
        "monotone_nondecreasing": bool(
            all(a <= b + 1e-12 for a, b in zip(medians, medians[1:]))
        ),
        "trials_per_sigma": ATTACK_SEEDS,
    }


def _is_layer_shapes(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(s, list) and len(s) == 3 and type(s[0]) is int
        and type(s[1]) is int and isinstance(s[2], bool)
        for s in value
    )


def _locate_last_weight(tensors: list[np.ndarray], shapes: list,
                        model_path: str) -> np.ndarray:
    """The last layer's weight stack from a saved model file, which must
    hold one (rows, cols, K) stack per block of the parameter layout of
    the manifest's ``layer_shapes``, all sharing one K."""
    found = [t.shape for t in tensors]
    if ([s[:2] for s in found] != param_blocks(shapes)
            or len({s[2] for s in found}) != 1):
        raise ParseError(
            f"{model_path}: stacks {found} do not match the manifest's "
            f"layer_shapes {shapes}"
        )
    # The last layer's blocks start with its weight.
    return tensors[len(param_blocks(shapes[:-1]))]


def analyze_run(run_dir) -> tuple[dict[str, list[str]], float, float]:
    """Check the run written to ``run_dir`` and render its diagnostics: the
    chunks of ``heatmap.csv``, ``spectra.csv`` and ``attack_report.json`` by
    file name, then the smoothness map's total and the attack's noiseless
    cosine.  A malformed ``final_model.t3r`` or ``run_manifest.json``
    raises :class:`ParseError` naming it."""
    model_path = os.path.join(run_dir, "final_model.t3r")
    manifest_path = os.path.join(run_dir, "run_manifest.json")
    tensors = load_tensors(model_path)
    if not tensors:
        raise ParseError(f"{model_path}: holds no tensors")
    with open(manifest_path, "r", encoding="ascii") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ParseError(f"{manifest_path}: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ParseError(f"{manifest_path}: not a run manifest")
    seed = manifest["config"].get("seed")
    shapes = manifest.get("layer_shapes")
    if not (type(seed) is int and seed >= 0 and _is_layer_shapes(shapes)):
        raise ParseError(f"{manifest_path}: bad config.seed or layer_shapes")

    last_w = _locate_last_weight(tensors, shapes, model_path)
    heat = smoothness_map(last_w)
    curves = [spectral_curves(t) for t in tensors]
    report = _attack_report(last_w, seed)
    outputs = {
        "heatmap.csv": [
            f"class,{','.join(f'client{s}' for s in range(heat.shape[1]))}\n", *(
                f"{j},{','.join(repr(float(v)) for v in row)}\n"
                for j, row in enumerate(heat))],
        "spectra.csv": ["tensor,slice,index,value\n", *(
            f"{ti},{si},{vi},{float(value)!r}\n"
            for ti, c in enumerate(curves) for (si, vi), value in np.ndenumerate(c))],
        "attack_report.json": [json.dumps(report, indent=2, sort_keys=True), "\n"],
    }
    return outputs, float(heat.sum()), report["noiseless_cosine"]

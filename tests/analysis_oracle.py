"""Reference run diagnostics that the tests compare the package against.

Nothing in ``fedceo`` calls these.  They are ``fedceo analyze`` as it was
before :func:`fedceo.analysis.analyze_run` took it over: ``smoothness_map``
stacks a list of K (classes, features) client matrices, ``attack_report``
builds its head with :func:`fedceo.models.logistic_model` and overwrites
the random weights, and ``analyze`` reads a run directory and renders the
three files.  ``analyze_run`` must match ``analyze`` byte for byte.
"""

from __future__ import annotations

import json
import os

import numpy as np

from fedceo.analysis import invert_linear_gradient
from fedceo.dp import rng_stream
from fedceo.errors import DegenerateGradient, NonFinite, ShapeMismatch
from fedceo.models import gradient, logistic_model, param_blocks, unflatten_params
from fedceo.tensor import fourier_singular_values, load_tensors

ATTACK_SIGMAS = (0.0, 0.5, 1.0, 2.0)
ATTACK_SEEDS = 20


def smoothness_map(last_layer_weights: list[np.ndarray]) -> np.ndarray:
    """(classes, K) roughness map of K client matrices whose rows are
    per-class vectors."""
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
        return np.zeros((shape[0], 1))
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("kjf,kjf->kj", stack, stack)
        total_sq = sq.sum(axis=0)
        total_row = stack.sum(axis=0)
        cross = np.einsum("kjf,jf->kj", stack, total_row)
        dist = k * sq + total_sq[None, :] - 2.0 * cross
    matrix = np.maximum(dist, 0.0).T / (k - 1)
    if not np.all(np.isfinite(matrix)):
        raise NonFinite("smoothness map overflows float64 for these weights")
    return matrix


def attack_report(last_w: np.ndarray, seed: int) -> dict:
    """Closed-form inversion on a bias-on head holding the clients' mean
    weights, noiseless and under noise at multiples of the gradient RMS."""
    features, classes, _ = last_w.shape
    head = logistic_model(features, classes, bias=True,
                          rng=rng_stream(seed, purpose="attack"))
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
    per_sigma = []
    for sigma in ATTACK_SIGMAS:
        errors = []
        for trial in range(ATTACK_SEEDS):
            rng = rng_stream(seed, round_no=2, client=trial, purpose="attack")
            gw = grad_w + rng.standard_normal(grad_w.shape) * sigma * scale
            gb = grad_b + rng.standard_normal(grad_b.shape) * sigma * scale
            try:
                errors.append(1.0 - cosine(invert_linear_gradient(gw, gb), x_true))
            except DegenerateGradient:
                errors.append(1.0)
        per_sigma.append({"sigma": sigma, "median_error": float(np.median(errors))})
    medians = [entry["median_error"] for entry in per_sigma]
    return {
        "noiseless_cosine": noiseless_cosine,
        "per_sigma": per_sigma,
        "monotone_nondecreasing": bool(
            all(a <= b + 1e-12 for a, b in zip(medians, medians[1:]))
        ),
        "trials_per_sigma": ATTACK_SEEDS,
    }


def spectral_curves(t: np.ndarray) -> np.ndarray:
    """Singular values of all n3 Fourier slices, slice j read from its
    distinct partner min(j, n3 - j)."""
    n3 = t.shape[2]
    j = np.arange(n3)
    return fourier_singular_values(t)[np.minimum(j, n3 - j)]


def analyze(run_dir) -> tuple[dict[str, list[str]], float, float]:
    """The three files' chunks by name, the map's total and the noiseless
    cosine, for a well-formed run directory."""
    tensors = load_tensors(os.path.join(run_dir, "final_model.t3r"))
    with open(os.path.join(run_dir, "run_manifest.json"), encoding="ascii") as fh:
        manifest = json.load(fh)
    shapes = manifest["layer_shapes"]
    last_w = tensors[len(param_blocks(shapes[:-1]))]
    k = last_w.shape[2]
    heat = smoothness_map([last_w[:, :, s].T for s in range(k)])
    curves = [spectral_curves(t) for t in tensors]
    report = attack_report(last_w, manifest["config"]["seed"])
    outputs = {
        "heatmap.csv": [f"class,{','.join(f'client{s}' for s in range(k))}\n", *(
            f"{j},{','.join(repr(float(v)) for v in row)}\n"
            for j, row in enumerate(heat))],
        "spectra.csv": ["tensor,slice,index,value\n", *(
            f"{ti},{si},{vi},{float(value)!r}\n"
            for ti, c in enumerate(curves) for (si, vi), value in np.ndenumerate(c))],
        "attack_report.json": [json.dumps(report, indent=2, sort_keys=True), "\n"],
    }
    return outputs, float(heat.sum()), report["noiseless_cosine"]

"""Reference clip and noise steps that the tests compare the package against.

Nothing in ``fedceo`` calls these.  ``clip_update`` and ``gaussianize``
are the package's first per-vector pair, and ``privatize_rows`` is the
per-client loop that turned a round's deltas into uploads with them, one
row at a time.  :func:`fedceo.dp.clip_update` and
:func:`fedceo.dp.gaussianize` act on the round's whole (K, P) array
instead; with the upload step ``start + lr * update`` applied after them,
they must match this loop bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from fedceo.dp import DpConfig
from fedceo.errors import NonFinite, ShapeMismatch


def clip_update(delta: np.ndarray, clip_c: float) -> np.ndarray:
    """``delta`` scaled so its l2 norm is at most ``clip_c``."""
    arr = np.asarray(delta, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFinite("update contains NaN or infinity: local training diverged")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr.ravel()))
    if not math.isfinite(norm):
        raise NonFinite("update norm overflows: local training diverged")
    return arr / max(1.0, norm / clip_c)


def gaussianize(start: np.ndarray, clipped: np.ndarray, eta: float, dp: DpConfig,
                k_selected: int, rng: np.random.Generator) -> np.ndarray:
    """Noisy upload: start + eta * (clipped + z), z ~ N(0, sigma^2 c^2 / K)."""
    a, b = np.asarray(start, dtype=np.float64), np.asarray(clipped, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    scale = dp.sigma * dp.clip_c / math.sqrt(k_selected)
    noise = rng.standard_normal(a.shape) * scale
    return a + eta * (b + noise)


def privatize_rows(deltas: np.ndarray, starts: np.ndarray, lr: float, dp: DpConfig,
                   k_selected: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """The (K, P) uploads of a private round, client by client: each row's
    delta clipped, then noised and stepped from its start."""
    return np.stack([gaussianize(start, clip_update(delta, dp.clip_c), lr, dp,
                                 k_selected, rng)
                     for delta, start, rng in zip(deltas, starts, rngs)])

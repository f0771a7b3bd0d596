"""The noise ledger: how far each smoothing pass of a run moves the noised
uploads toward the uploads without their noise.

:func:`ledger` runs a config with ``fedceo.protocol.gaussianize`` and
``fedceo.protocol.server_smooth`` wrapped to keep copies of what they take
and return.  In a pass, U is the (K, P) uploads it takes and P those it
returns; L = lr · z is the noise that U carries, z being what
``gaussianize`` added to that round's clipped updates; S = U − L is the
uploads without their noise.  S holds each client's start model, so the
pass acts on models, not on updates.  A bar is the mean over the K
clients, the model a round evaluates.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from fedceo import protocol
from fedceo.config import RunConfig


class Pass(NamedTuple):
    stack: float  # ‖P − S‖_F / ‖L‖_F: below 1 when the slices near the noiseless uploads
    mean: float   # ‖P̄ − S̄‖ / ‖L̄‖: the same for the evaluated mean
    moved: float  # ‖U − P‖_F / ‖U‖_F: how much the pass changed


def _ratio(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a) / np.linalg.norm(b))


def ledger(cfg: RunConfig, threads: int = 1) -> list[Pass]:
    """One :class:`Pass` per smoothing pass of ``cfg``'s run, in order."""
    noise, passes = [], []
    real_noise, real_smooth = protocol.gaussianize, protocol.server_smooth

    def gaussianize(clipped, *args, **kwargs):
        before = clipped.copy()
        real_noise(clipped, *args, **kwargs)
        noise[:] = [cfg.lr * (clipped - before)]

    def server_smooth(uploads, *args, **kwargs):
        u, lr_z = uploads.copy(), noise[0]
        p, norm = real_smooth(uploads, *args, **kwargs)
        s = u - lr_z
        passes.append(Pass(_ratio(p - s, lr_z),
                           _ratio(p.mean(axis=0) - s.mean(axis=0), lr_z.mean(axis=0)),
                           _ratio(u - p, u)))
        return p, norm

    protocol.gaussianize, protocol.server_smooth = gaussianize, server_smooth
    try:
        protocol.run_experiment(cfg, threads=threads)
    finally:
        protocol.gaussianize, protocol.server_smooth = real_noise, real_smooth
    return passes

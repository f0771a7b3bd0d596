"""Machine-speed calibration for the benchmark's times.

The reference machine is a 2-CPU share of a host whose other tenants
change how fast a fixed job runs: by ±30% from one second to the next,
and by up to 40% between runs a few minutes apart.  Process CPU time moves
with wall time, so this is not time spent descheduled; every job on the
machine slows down or speeds up together.  Medians over one run cannot
average that away, and two runs of the same code then differ by more than
any change worth catching.

So the benchmark times a fixed job, the *speed probe*, between the
workload's operations, and scales its times by ``REFERENCE_S`` over the
probe's mean time: over the whole run for iteration times, and on either
side of it for each set-up time.  The results are seconds at the speed
the reference machine had when ``REFERENCE_S`` was measured.  A change to the
program moves the workload's time and not the probe's, so it shows in
full.  The raw times and the probe's own times are kept in each run's
record under ``.perfbench/``.

The probe does one slice of each kind of work the workloads do: a pure
Python loop (the per-step interpreter work of local SGD), small NumPy
array operations (one SGD step of a small softmax model each), and
LAPACK SVDs of a 256 x 256 matrix (the smoothing pass).  It allocates the
same arrays every time and depends on nothing in ``fedceo``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on the reference machine (2-CPU x86-64 KVM guest,
# Python 3.11.7, NumPy 2.4.6, OpenBLAS 0.3.31 with one thread), over 772
# probes taken back to back across 150 s.  Fixed: changing it rescales every
# reported time.
REFERENCE_S = 0.2045

_RNG = np.random.default_rng(20240210)
_X = _RNG.standard_normal((2000, 20))
_Y = _RNG.integers(0, 10, 2000)
_A = _RNG.standard_normal((256, 256))
_ROWS = np.arange(16)


def probe_job() -> None:
    total = 0
    for i in range(800_000):
        total += i * i
    w = np.zeros((20, 10))
    for step in range(1600):
        start = (step * 16) % 1984
        x, y = _X[start:start + 16], _Y[start:start + 16]
        z = x @ w
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[_ROWS, y] -= 1.0
        w -= 0.1 * (x.T @ p) / 16
    for _ in range(5):
        np.linalg.svd(_A)


class SpeedProbe:
    """Times ``probe_job`` on demand and scales times by what it saw."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent probing, for callers to subtract

    def sample(self) -> None:
        start = time.perf_counter()
        probe_job()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def scale(self, first: int) -> float:
        """``REFERENCE_S`` over the mean probe time from sample ``first`` on."""
        return REFERENCE_S / statistics.fmean(self.samples[first:])

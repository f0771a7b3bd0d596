"""Splitting a phase of a round over a few threads.

NumPy releases the GIL in its BLAS, LAPACK, FFT and random-fill loops, so
threads that each own a block of an array's rows run those loops side by
side.  Each caller splits work whose rows are independent, so no result
depends on the block a row lands in or on the thread count.

One rule, in :func:`thread_map`, sizes every phase's pool: never more
threads than the phase has items, and none that would get less work than
the phase's floor, the work below which a thread costs more than it
saves.  One cut, :func:`blocks`, splits a phase's rows over that pool.
Each phase sets only its own items, work and floor.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blocks(n: int, parts: int) -> list[slice]:
    """At most ``min(parts, n)`` interleaved blocks of ``range(n)``, one
    empty block when ``n`` is 0: with w blocks, block b holds b, b + w,
    ..., so their sizes differ by at most one."""
    parts = max(1, min(parts, n))
    return [slice(b, n, parts) for b in range(parts)]


@contextmanager
def thread_map(threads: int, items: int, work: int, floor: int):
    """``(run, workers)`` for a phase of ``items`` items and ``work`` units
    of work, at least ``floor`` units a thread, on at most ``threads``
    threads: ``run(fn, xs)`` returns ``[fn(x) for x in xs]`` on one pool of
    ``workers = max(1, min(threads, items, work // floor))`` threads, kept
    for the ``with`` block, or on the caller when ``workers`` is 1.

    Each pool call runs under the caller's floating-point error state
    (:func:`numpy.errstate`), which a pool thread does not inherit.
    """
    workers = max(1, min(threads, items, work // floor))
    if workers == 1:
        yield (lambda fn, xs: list(map(fn, xs))), workers
        return
    # Imported here, so a process that never starts a pool does not pay
    # for the import.
    from concurrent.futures import ThreadPoolExecutor

    errors = np.geterr()

    def run(fn, xs):
        def call(x):
            with np.errstate(**errors):
                return fn(x)

        return list(pool.map(call, xs))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield run, workers

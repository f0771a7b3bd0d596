"""Splitting a phase of a round over a few threads.

NumPy releases the GIL in its BLAS, LAPACK, FFT and random-fill loops, so
threads that each own a block of an array's rows run those loops side by
side.  Each caller splits work whose rows are independent, so no result
depends on the block a row lands in or on the thread count.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


def row_blocks(n: int, parts: int) -> list[slice]:
    """``parts`` contiguous blocks of ``range(n)`` whose sizes differ by at
    most one, never more blocks than rows; one block, maybe empty, when
    ``n`` or ``parts`` is below 2."""
    parts = max(1, min(parts, n))
    return [slice(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


@contextmanager
def thread_map(workers: int):
    """A ``run(fn, items)`` that returns ``[fn(item) for item in items]``:
    on one pool of ``workers`` threads, kept for the ``with`` block, or on
    the caller when ``workers`` is below 2.

    Each pool call runs under the caller's floating-point error state
    (:func:`numpy.errstate`), which a pool thread does not inherit.
    """
    if workers < 2:
        yield lambda fn, items: list(map(fn, items))
        return
    # Imported here, so a process that never starts a pool does not pay
    # for the import.
    from concurrent.futures import ThreadPoolExecutor

    errors = np.geterr()

    def run(fn, items):
        def call(item):
            with np.errstate(**errors):
                return fn(item)

        return list(pool.map(call, items))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield run

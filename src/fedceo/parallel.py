"""Splitting a phase of a round over a few threads, and a sweep's cells
over a few forked processes.

NumPy releases the GIL in its BLAS, LAPACK, FFT and random-fill loops, so
threads that each own a block of an array's rows run those loops side by
side.  Each caller splits work whose rows are independent, so no result
depends on the block a row lands in or on the thread count.  Work that
holds the GIL, such as a whole run's Python-level round loop, runs side by
side only in processes: :func:`process_map` forks them, and they inherit
the caller's memory, so the data they share is never pickled.

One rule, in :func:`pool_size`, sizes every pool: never more workers than
the budget or the items, and none that would get less work than the
floor, the work below which a worker costs more than it saves.  One cut,
:func:`blocks`, splits a phase's rows over a thread pool.  Each caller
sets only its own items, work and floor.
"""

from __future__ import annotations

import os
import signal
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


def pool_size(budget: int, items: int, work: int, floor: int) -> int:
    """The workers of a pool for ``items`` items and ``work`` units of work
    on a budget of ``budget`` workers: ``max(1, min(budget, items, work //
    floor))``, so each worker gets at least ``floor`` units."""
    return max(1, min(budget, items, work // floor))


@contextmanager
def thread_map(threads: int, items: int, work: int, floor: int):
    """``(run, workers)`` for a phase of ``items`` items and ``work`` units
    of work, at least ``floor`` units a thread, on at most ``threads``
    threads: ``run(fn, xs)`` returns ``[fn(x) for x in xs]`` on one pool of
    ``workers = pool_size(threads, items, work, floor)`` threads, kept for
    the ``with`` block, or on the caller when ``workers`` is 1.

    Each pool call runs under the caller's floating-point error state
    (:func:`numpy.errstate`), which a pool thread does not inherit.
    """
    workers = pool_size(threads, items, work, floor)
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


class WorkerLost(MemoryError):
    """A worker process of :func:`process_map` ended without a result."""


@contextmanager
def process_map(processes: int, items: int, work: int, floor: int):
    """``(run, workers)`` for ``items`` items and ``work`` units of work, at
    least ``floor`` units a process, on at most ``processes`` processes:
    ``run(fn, xs)`` yields ``fn(x)`` for each ``x`` in ``xs``, in order, from
    one pool of ``workers = pool_size(processes, items, work, floor)``
    forked processes, kept for the ``with`` block, each of which ignores
    SIGINT.  When ``workers`` is 1, or the platform cannot fork, ``fn`` runs
    on the caller.  The workers fork at the first ``run`` call and inherit
    the caller's memory as it is then, so what ``fn`` reads from module
    globals need not be pickled; ``fn``, each ``x`` and each result or
    exception are.

    A worker that ends without a result raises :class:`WorkerLost`.  When
    the block ends by an exception, the pool's own workers are terminated,
    so the items still running stop too; either way the items that have
    not started are cancelled and every worker is joined.
    """
    workers = pool_size(processes, items, work, floor)
    if workers > 1:
        # Imported here, so a process that never starts a pool does not pay
        # for the import.
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        yield (lambda fn, xs: map(fn, xs)), workers
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def run(fn, xs):
        for future in [pool.submit(fn, x) for x in xs]:
            try:
                yield future.result()
            except BrokenProcessPool:
                raise WorkerLost("its worker process ended without a result, most "
                                 "likely killed when the system ran out of memory") from None

    others = set(multiprocessing.active_children())
    # An interrupt reaches the whole process group; the parent reports it.
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               signal.signal, (signal.SIGINT, signal.SIG_IGN))
    try:
        yield run, workers
    except BaseException:
        for worker in set(multiprocessing.active_children()) - others:
            worker.terminate()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)

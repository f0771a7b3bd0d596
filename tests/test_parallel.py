"""The one pool rule of ``fedceo.parallel``: how many threads a phase's
pool gets, and how its rows are cut over them, and how many forked
processes a process pool gets and how it hands back results and failures.
The per-phase tests in ``test_dp.py``, ``test_models.py`` and
``test_tensor.py`` check that each phase passes its own items, work and
floor, and ``test_sweep.py`` and ``test_data.py`` that a sweep and the
dataset writer do."""

import multiprocessing
import os
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedceo.parallel import WorkerLost, blocks, pool_size, process_map, thread_map


@pytest.mark.parametrize("threads, items, work, floor, workers", [
    (10**6, 3, 10**9, 1, 3),  # a huge budget is capped by the items
    (10**6, 10**6, 5 * 1024, 1024, 5),  # ... and by the work
    (2, 8, 10**9, 1, 2),  # ... and the budget caps the rest
    (4, 8, 1023, 1024, 1),  # work under one floor: no pool
    (4, 1, 10**9, 1, 1),  # one item
    (4, 0, 10**9, 1, 1),  # no items
    (1, 8, 10**9, 1, 1),  # one thread
])
def test_pool_size(pool_spy, threads, items, work, floor, workers):
    with thread_map(threads, items, work, floor) as (run, chosen):
        assert run(lambda x: x * x, range(items)) == [x * x for x in range(items)]
    assert chosen == workers
    assert pool_spy.sizes == ([workers] if workers > 1 else [])


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 300), st.integers(1, 70))
def test_blocks_interleave_every_index_once(n, parts):
    cut = blocks(n, parts)
    members = [list(range(n)[block]) for block in cut]
    assert sorted(i for block in members for i in block) == list(range(n))
    if n == 0:
        assert members == [[]]
    else:
        assert len(cut) == min(parts, n)
    sizes = [len(block) for block in members]
    assert max(sizes) - min(sizes) <= 1
    assert [(block.start, block.step) for block in cut] == [(b, len(cut)) for b in range(len(cut))]


@pytest.mark.parametrize("processes, items, work, floor, workers", [
    (10**6, 3, 10**9, 1, 3),  # a huge budget is capped by the items
    (10**6, 100, 5 * 1024, 1024, 5),  # ... and by the work
    (2, 8, 10**9, 1, 2),  # ... and the budget caps the rest
    (4, 8, 1023, 1024, 1),  # work under one floor: no pool
    (4, 1, 10**9, 1, 1),  # one item
    (1, 8, 10**9, 1, 1),  # one process
])
def test_process_pool_size(process_spy, processes, items, work, floor, workers):
    assert pool_size(processes, items, work, floor) == workers
    with process_map(processes, items, work, floor) as (run, chosen):
        assert list(run(lambda x: x * x, range(items))) == [x * x for x in range(items)]
    assert chosen == workers
    assert process_spy.sizes == ([workers] if workers > 1 else [])


# Set by a test before its pool starts; the forked workers inherit it.
inherited = {}


def offset_square(x):
    return x * x + inherited["offset"], os.getpid()


def test_a_process_pool_runs_its_items_in_order_on_forked_workers(monkeypatch):
    monkeypatch.setitem(inherited, "offset", 100)
    with process_map(2, 5, 10, 1) as (run, workers):
        assert workers == 2
        got = list(run(offset_square, range(5)))
    assert [value for value, pid in got] == [100, 101, 104, 109, 116]
    assert os.getpid() not in {pid for value, pid in got}
    assert multiprocessing.active_children() == []


class Box:
    """A result that a weak reference can follow."""

    def __init__(self, x):
        self.x = x


def test_a_process_pool_holds_no_result_it_has_yielded():
    with process_map(2, 3, 10, 1) as (run, workers):
        assert workers == 2
        results = run(Box, range(3))
        first = next(results)
        first_ref = weakref.ref(first)
        del first
        # Once the next result is in, the pool has let go of the first.
        assert next(results).x == 1
        assert first_ref() is None
        assert next(results).x == 2
    assert multiprocessing.active_children() == []


def fail_on_two(x):
    if x == 2:
        raise ValueError(f"item {x}")
    return x


def test_the_first_failing_item_raises_after_the_workers_are_joined():
    got = []
    with pytest.raises(ValueError, match="item 2"):
        with process_map(2, 6, 10, 1) as (run, workers):
            got.extend(run(fail_on_two, range(6)))
    assert got == [0, 1]
    assert multiprocessing.active_children() == []


def die(x):
    os._exit(1)


def test_a_worker_that_dies_raises_worker_lost():
    with pytest.raises(WorkerLost) as err:
        with process_map(2, 2, 10, 1) as (run, workers):
            list(run(die, range(2)))
    assert isinstance(err.value, MemoryError)
    assert multiprocessing.active_children() == []


def test_an_exception_in_the_block_stops_the_running_items_and_no_other_child():
    other = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    other.start()
    try:
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="stop"):
            with process_map(2, 2, 10, 1) as (run, workers):
                got = run(time.sleep, [0, 60])
                assert next(got) is None
                raise RuntimeError("stop")
        assert time.monotonic() - start < 10
        assert multiprocessing.active_children() == [other]
    finally:
        other.terminate()
        other.join()

"""Fixtures shared by the thread-pool and process-pool tests."""

import concurrent.futures
from types import SimpleNamespace

import pytest

from fedceo import dp, models, tensor


@pytest.fixture
def pool_spy(monkeypatch):
    """Record every thread pool fedceo makes: ``sizes`` holds each pool's
    ``max_workers`` and ``maps`` the items of each ``map`` call, in call
    order.  A spy stands in for the executor and maps on the caller, so no
    thread is started."""
    spy = SimpleNamespace(sizes=[], maps=[])

    class SpyExecutor:
        def __init__(self, max_workers):
            spy.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            spy.maps.append(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyExecutor)
    return spy


@pytest.fixture
def pool_sizes(pool_spy):
    """The ``max_workers`` of every thread pool fedceo makes (see
    :func:`pool_spy`)."""
    return pool_spy.sizes


@pytest.fixture
def process_spy(monkeypatch):
    """Record every process pool fedceo makes: ``sizes`` holds each pool's
    ``max_workers`` and ``items`` the items submitted to it, in call order.
    A spy stands in for the executor and runs each item on the caller, so
    no process is started or terminated."""
    spy = SimpleNamespace(sizes=[], items=[])

    class SpyExecutor:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            spy.sizes.append(max_workers)

        def submit(self, fn, item):
            spy.items.append(item)
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(item))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, wait, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyExecutor)
    return spy


@pytest.fixture
def lifted_floors(monkeypatch):
    """Let rounds of any size split their noise draws, lock steps and
    smoothing passes over threads, so small ones test the pools."""
    monkeypatch.setattr(dp, "MIN_DRAWS_PER_THREAD", 1)
    monkeypatch.setattr(models, "MIN_PARAMS_PER_THREAD", 1)
    monkeypatch.setattr(tensor, "MIN_WORK_PER_THREAD", 1)

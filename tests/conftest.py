"""Fixtures shared by the thread-pool tests."""

import concurrent.futures

import pytest

from fedceo import dp, models, tensor


@pytest.fixture
def pool_sizes(monkeypatch):
    """Record the ``max_workers`` of every thread pool fedceo makes; a spy
    stands in for the executor and maps on the caller, so no thread is
    started."""
    sizes = []

    class SpyExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyExecutor)
    return sizes


@pytest.fixture
def lifted_floors(monkeypatch):
    """Let rounds of any size split their noise draws, lock steps and
    smoothing passes over threads, so small ones test the pools."""
    monkeypatch.setattr(dp, "MIN_DRAWS_PER_THREAD", 1)
    monkeypatch.setattr(models, "MIN_PARAMS_PER_THREAD", 1)
    monkeypatch.setattr(tensor, "MIN_WORK_PER_THREAD", 1)

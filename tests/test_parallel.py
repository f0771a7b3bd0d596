"""The one thread rule of ``fedceo.parallel``: how many threads a phase's
pool gets, and how its rows are cut over them.  The per-phase tests in
``test_dp.py``, ``test_models.py`` and ``test_tensor.py`` check that each
phase passes its own items, work and floor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedceo.parallel import blocks, thread_map


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

"""Layer microbenchmarks of ``LockedHeapPq`` and the dual-heap build.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_insert_extract`` times one ``pq_insert`` of a fresh item followed by
one ``pq_extract_first``, on a heap holding ``size`` entries in either
order; the fresh item is made untimed before each round, so the heap stays
at ``size``.  ``test_dual_heap_extraction`` times one dual-heap extraction
through the combining wrapper (ends alternating) at 1000 live keys; an
untimed insert before each round keeps the count there.
``test_dual_heap_insert`` times one ``DualDepq.insert``, a fresh item and
its two heap inserts, at 1000 live keys; an untimed extraction before each
round (ends alternating) keeps the count there.  It records in
``extra_info["bytes_per_insert"]`` the memory that ``BYTES_INSERTS`` inserts
allocate per insert on a fresh dual-heap build, as ``tracemalloc`` counts
it: the ``new_item`` call and both heap entries included, over random keys
below 2**20.  Only the public API is used.
"""

import itertools
import random
import tracemalloc

import pytest

from depq.dual_depq import COMBINING, DualDepq, make_multi_consumer
from depq.items import Arena
from depq.oracle import LockedHeapPq

KEYS = 1000
BYTES_INSERTS = 10_000


def dual_heap() -> DualDepq:
    arena = Arena()
    return DualDepq(arena, LockedHeapPq(arena), LockedHeapPq(arena, descending=True))


def bytes_per_insert() -> float:
    rng = random.Random(11)
    d = dual_heap()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(BYTES_INSERTS):
            d.insert(rng.randrange(1 << 20))
        return (tracemalloc.get_traced_memory()[0] - before) / BYTES_INSERTS
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("descending", [False, True], ids=["asc", "desc"])
@pytest.mark.parametrize("size", [10**3, 10**4])
def test_insert_extract(benchmark, size, descending):
    arena = Arena()
    pq = LockedHeapPq(arena, descending=descending)
    rng = random.Random(7)
    for _ in range(size):
        pq.pq_insert(arena.new_item(rng.randrange(1 << 20)))

    def fresh():
        return (arena.new_item(rng.randrange(1 << 20)),), {}

    def insert_extract(index):
        pq.pq_insert(index)
        return pq.pq_extract_first()

    benchmark.pedantic(insert_extract, setup=fresh, rounds=20_000, warmup_rounds=200)
    assert len(pq) == size
    pq.check_heap()


def test_dual_heap_extraction(benchmark):
    d = make_multi_consumer(dual_heap(), COMBINING)
    rng = random.Random(7)
    for key in rng.sample(range(1 << 20), KEYS - 1):
        d.insert(key)
    ends = itertools.cycle((d.extract_min, d.extract_max))

    def refill():
        d.insert(rng.randrange(1 << 20))

    def extract():
        return next(ends)()

    benchmark.pedantic(extract, setup=refill, rounds=20_000, warmup_rounds=200)
    assert len(d.remaining_keys()) == KEYS - 1
    assert d.problems() == []


def test_dual_heap_insert(benchmark):
    benchmark.extra_info["bytes_per_insert"] = round(bytes_per_insert(), 1)
    d = dual_heap()
    rng = random.Random(7)
    for key in rng.sample(range(1 << 20), KEYS):
        d.insert(key)
    ends = itertools.cycle((d.extract_min, d.extract_max))

    def drop_one():
        assert next(ends)() is not None
        return (rng.randrange(1 << 20),), {}

    benchmark.pedantic(d.insert, setup=drop_one, rounds=20_000, warmup_rounds=200)
    assert len(d.remaining_keys()) == KEYS
    assert d.problems() == []

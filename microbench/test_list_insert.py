"""Layer microbenchmark of ``ListPair.insert``.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_pair_insert`` times one pair insert, which links a fresh item into
both lists and its key into the index, on a pair holding ``size`` keys
drawn at random below 2**20.  Nothing is ever deleted, so each round grows
the pair by one key; an untimed setup rebuilds it from the same seed once
it has grown by a tenth, keeping it between ``size`` and 1.1 × ``size``
keys.  The fresh item is made untimed before each round.  It records in
``extra_info["bytes_per_node"]`` the memory that ``BYTES_NODES`` inserts
allocate per list node on a fresh pair, as ``tracemalloc`` counts it: the
``new_item`` call included, over random keys below 2**20; and in
``extra_info["tracked_per_node"]`` the objects the cyclic collector
tracks after those inserts, per node, against before them.  Only the
public API is used.
"""

import functools
import gc
import random
import tracemalloc

import pytest

from depq.items import MAX, MIN, Arena
from depq.ordered_list import ListPair

ROUNDS = 3000
BYTES_NODES = 10_000


@functools.cache      # one figure for every size
def bytes_per_node() -> float:
    rng = random.Random(11)
    arena = Arena()
    lists = ListPair(arena)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(BYTES_NODES):
            lists.insert(arena.new_item(rng.randrange(1 << 20)))
        return (tracemalloc.get_traced_memory()[0] - before) / BYTES_NODES
    finally:
        tracemalloc.stop()


@functools.cache
def tracked_per_node() -> float:
    rng = random.Random(11)
    arena = Arena()
    lists = ListPair(arena)
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(BYTES_NODES):
        lists.insert(arena.new_item(rng.randrange(1 << 20)))
    gc.collect()
    return (len(gc.get_objects()) - before) / BYTES_NODES


@pytest.mark.parametrize("size", [10**2, 10**3, 10**4, 10**5])
def test_pair_insert(benchmark, size):
    benchmark.extra_info["bytes_per_node"] = round(bytes_per_node(), 1)
    benchmark.extra_info["tracked_per_node"] = round(tracked_per_node(), 3)
    rng = random.Random(size)
    pair = {}

    def build():
        build_rng = random.Random(7)
        arena = Arena()
        lists = ListPair(arena)
        for _ in range(size):
            lists.insert(arena.new_item(build_rng.randrange(1 << 20)))
        pair.update(arena=arena, lists=lists, grown=0)

    def fresh():
        if not pair or pair["grown"] >= size // 10:
            build()
        pair["grown"] += 1
        return (pair["lists"], pair["arena"].new_item(rng.randrange(1 << 20))), {}

    def pair_insert(lists, index):
        lists.insert(index)

    benchmark.pedantic(pair_insert, setup=fresh, rounds=ROUNDS, warmup_rounds=100)
    lists = pair["lists"]
    assert len(lists.suffix(MIN)) == size + pair["grown"]
    assert lists.audit(MIN).ok and lists.audit(MAX).ok

"""Layer microbenchmark of one ``ListPair`` pop: ``extract_first`` and then
``sweep_head`` on the same end.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_pop`` times one pop from the ascending end, the work a
``ListPq.pq_extract_first`` does apart from reclamation, on a pair holding
``size`` keys drawn at random below 2**20.  Each round shrinks the pair by
one key; an untimed setup rebuilds it from the same seed once it has shrunk
by a tenth, keeping it between 0.9 × ``size`` and ``size`` keys.  Only the
public API is used.
"""

import random

import pytest

from depq.items import MAX, MIN, Arena
from depq.ordered_list import ListPair

ROUNDS = 3000


@pytest.mark.parametrize("size", [10**2, 10**3, 10**4])
def test_pop(benchmark, size):
    pair = {}

    def build():
        build_rng = random.Random(7)
        arena = Arena()
        lists = ListPair(arena)
        for _ in range(size):
            lists.insert(arena.new_item(build_rng.randrange(1 << 20)))
        pair.update(lists=lists, popped=0)

    def refill():
        if not pair or pair["popped"] >= size // 10:
            build()
        pair["popped"] += 1
        return (pair["lists"],), {}

    def pop(lists):
        got = lists.extract_first(MIN)
        lists.sweep_head(MIN)
        return got

    benchmark.pedantic(pop, setup=refill, rounds=ROUNDS, warmup_rounds=100)
    lists = pair["lists"]
    assert len(lists.suffix(MIN)) == size - pair["popped"]
    assert lists.audit(MIN).ok and lists.audit(MAX).ok

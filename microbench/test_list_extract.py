"""Layer microbenchmark of one ``ListPair`` pop: ``extract_first`` and then
``sweep_head`` on the same end.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_pop`` times one pop from the ascending end, the work a
``ListPq.pq_extract_first`` does apart from reclamation, on a pair holding
``size`` keys drawn at random below 2**20: ``extract_first`` marks the
head's link word and ``sweep_head`` moves the head to the node it names,
straight-line code that walks no chain.  Each round shrinks the pair by
one key; an untimed setup rebuilds it from the same seed once it has shrunk
by a tenth, keeping it between 0.9 × ``size`` and ``size`` keys.

``test_extract_past_claimed`` times one ``DualDepq.extract_min`` over two
``ListPq`` on a pair of ``CLAIMED_SIZE`` keys, whose first ``claimed``
nodes on the ascending list the other end has claimed: an untimed setup
claims them with ``try_reserve`` before each round.  The pop skips them
and claims the node after them, and its sweep unlinks the whole run.  A
build whose pop returned claimed nodes one at a time pays ``claimed + 1``
pops and ``claimed`` failed claims here.  The setup rebuilds the pair
from the same seed once fewer than ``claimed + 1`` unpopped nodes remain.

Only the public API is used.
"""

import random

import pytest

from depq.dual_depq import DualDepq
from depq.items import MAX, MIN, Arena, try_reserve
from depq.ordered_list import ListPair, ListPq

ROUNDS = 3000
CLAIMED_SIZE = 1000


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


@pytest.mark.parametrize("claimed", [1, 8, 32])
def test_extract_past_claimed(benchmark, claimed):
    state = {}

    def build():
        build_rng = random.Random(7)
        arena = Arena()
        lists = ListPair(arena)
        for _ in range(CLAIMED_SIZE):
            lists.insert(arena.new_item(build_rng.randrange(1 << 20)))
        dual = DualDepq(arena, ListPq(lists, MIN), ListPq(lists, MAX))
        state.update(arena=arena, lists=lists, dual=dual, order=lists.suffix(MIN), next=0)

    def claim_run():
        if not state or state["next"] + claimed >= len(state["order"]):
            build()
        start, arena = state["next"], state["arena"]
        for node in state["order"][start:start + claimed]:
            assert try_reserve(arena, node)
        state["next"] = start + claimed + 1
        return (state["dual"],), {}

    def extract(dual):
        return dual.extract_min()

    benchmark.pedantic(extract, setup=claim_run, rounds=ROUNDS, warmup_rounds=100)
    lists, order = state["lists"], state["order"]
    assert lists.head(MIN) == order[state["next"] - 1]
    assert lists.suffix(MIN) == order[state["next"]:]
    assert lists.audit(MIN).ok and lists.audit(MAX).ok

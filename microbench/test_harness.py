"""Microbenchmark of the test harness's cost on a list-depq operation.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_pair`` times one insert + extract pair on an epoch-mode
``ListDepq`` prefilled with ``SIZE`` keys drawn at random below 2**20: an
insert of a fresh random key, then an extraction at an end drawn at random,
so about ``SIZE`` keys stay live.  It runs with no controller installed,
when every sited function runs its site-free twin, and with a pass-through
controller installed, when they run their sited code and each site calls a
``pause`` that returns at once.  The gap between the two is what the pause
sites cost an operation while a test scheduler is installed, and what the
twins save without one.  The key and the end are drawn untimed before each
round.  Only the public API is used.
"""

import random

import pytest

from depq import atomics
from depq.list_depq import ListDepq
from depq.reclaim import EPOCH

ROUNDS = 20_000
SIZE = 1000


class PassThrough:
    """A controller whose every pause returns at once."""

    def pause(self, site, blocked=None):
        pass


@pytest.mark.parametrize("controller", [None, PassThrough()],
                         ids=["no-controller", "pass-through"])
def test_pair(benchmark, controller):
    rng = random.Random(SIZE)
    queue = ListDepq(reclaim_mode=EPOCH)
    for _ in range(SIZE):
        queue.insert(rng.randrange(1 << 20))

    def draw():
        extract = queue.extract_min if rng.random() < 0.5 else queue.extract_max
        return (rng.randrange(1 << 20), extract), {}

    def pair(key, extract):
        queue.insert(key)
        return extract()

    atomics.set_controller(controller)
    try:
        benchmark.pedantic(pair, setup=draw, rounds=ROUNDS, warmup_rounds=200)
    finally:
        atomics.set_controller(None)
    assert len(queue.remaining_keys()) == SIZE
    assert not queue.problems()
    queue.close()

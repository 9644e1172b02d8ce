"""Layer microbenchmarks of the ``Reclaimer``.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_unlink_twice`` times both ``on_unlink`` calls of one item, the first
removal and the second one that retires it, in each reclaim mode; the fresh
item is made untimed before each round.  Each call takes the arena's
``rmw_lock`` once: the second one bumps the retire count and retires the
item into its limbo list in the same hold.  Nothing advances the epoch, so
every retired item stays pending.  ``test_epoch_bracket`` times one
``enter`` + ``exit`` pair in epoch mode with no epoch advance pending.
``test_advance_frees`` times one successful ``try_advance`` in epoch mode
that frees one item: each round first retires one item untimed, and one
item retired an epoch earlier is already waiting.  Only the public API is
used.
"""

import pytest

from depq.items import Arena
from depq.reclaim import DEFERRED, EPOCH, Reclaimer

ROUNDS = 20_000


@pytest.mark.parametrize("mode", [DEFERRED, EPOCH])
def test_unlink_twice(benchmark, mode):
    arena = Arena()
    rec = Reclaimer(arena, mode=mode)

    def fresh():
        return (arena.new_item(0),), {}

    def unlink_twice(index):
        return rec.on_unlink(index), rec.on_unlink(index)

    assert benchmark.pedantic(unlink_twice, setup=fresh, rounds=ROUNDS,
                              warmup_rounds=200) == (False, True)
    assert rec.snapshot()["retired"] == rec.pending() > 0
    rec.close()


def test_epoch_bracket(benchmark):
    rec = Reclaimer(Arena(), mode=EPOCH)

    def bracket():
        rec.enter()
        rec.exit()

    benchmark(bracket)
    assert rec.snapshot()["freed"] == 0


def test_advance_frees(benchmark):
    arena = Arena()
    rec = Reclaimer(arena, mode=EPOCH)

    def retire():
        index = arena.new_item(0)
        rec.on_unlink(index)
        rec.on_unlink(index)
        return (), {}

    retire()
    assert rec.try_advance()        # epoch 1; the first item waits for epoch 2
    assert benchmark.pedantic(rec.try_advance, setup=retire, rounds=ROUNDS,
                              warmup_rounds=200) is True
    counts = rec.snapshot()
    assert counts["pending"] == 1   # each timed advance freed one item
    assert counts["freed"] == counts["retired"] - 1 > 0

"""Retire-bit protocol and grace-period reclamation."""

import pytest

from depq.atomics import checkpoint
from depq.items import Arena
from depq.reclaim import DEFERRED, EPOCH, Reclaimer, RetireProtocolError
from depq.sched import ControlledScheduler


def test_first_unlink_is_not_safe_second_is():
    arena = Arena()
    rec = Reclaimer(arena, mode=DEFERRED)
    idx = arena.new_item(1)
    assert rec.on_unlink(idx) is False
    assert rec.on_unlink(idx) is True
    assert rec.snapshot()["retired"] == 1


def test_third_unlink_is_a_protocol_violation():
    arena = Arena()
    rec = Reclaimer(arena, mode=DEFERRED)
    idx = arena.new_item(1)
    rec.on_unlink(idx)
    rec.on_unlink(idx)
    with pytest.raises(RetireProtocolError):
        rec.on_unlink(idx)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        Reclaimer(Arena(), mode="refcount")


def test_deferred_mode_frees_only_at_close():
    arena = Arena()
    rec = Reclaimer(arena, mode=DEFERRED)
    indices = [arena.new_item(k) for k in range(10)]
    for idx in indices:
        rec.on_unlink(idx)
        rec.on_unlink(idx)
    assert rec.snapshot()["freed"] == 0
    assert rec.pending() == 10
    assert all(not arena.is_poisoned(i) for i in indices)
    rec.close()
    assert rec.snapshot()["freed"] == 10
    assert all(arena.is_poisoned(i) for i in indices)


def test_epoch_mode_frees_after_two_advances():
    arena = Arena()
    rec = Reclaimer(arena, mode=EPOCH)
    idx = arena.new_item(1)
    rec.enter()
    rec.on_unlink(idx)
    rec.on_unlink(idx)
    rec.exit()
    assert rec.try_advance()
    assert not arena.is_poisoned(idx)   # one grace period is not enough
    assert rec.try_advance()
    assert arena.is_poisoned(idx)
    assert rec.snapshot()["freed"] == 1


def test_frozen_reader_blocks_deallocation():
    arena = Arena()
    rec = Reclaimer(arena, mode=EPOCH)
    idx = arena.new_item(1)

    def reader():
        rec.enter()
        checkpoint("reader-active")
        rec.exit()

    with ControlledScheduler() as sched:
        sched.freeze("reader", "reader-active")
        sched.spawn("reader", reader)
        sched.start()
        sched.wait_frozen("reader")
        rec.on_unlink(idx)
        rec.on_unlink(idx)
        advanced = sum(1 for _ in range(5) if rec.try_advance())
        assert advanced <= 1              # stuck behind the reader's epoch
        assert rec.snapshot()["freed"] == 0
        assert not arena.is_poisoned(idx)
        sched.thaw("reader")
        sched.join_worker("reader")
    assert rec.try_advance()
    assert rec.try_advance() or arena.is_poisoned(idx)
    assert arena.is_poisoned(idx)


def test_try_advance_is_meaningless_in_deferred_mode():
    rec = Reclaimer(Arena(), mode=DEFERRED)
    assert rec.try_advance() is False


def test_close_is_idempotent():
    arena = Arena()
    rec = Reclaimer(arena, mode=DEFERRED)
    idx = arena.new_item(1)
    rec.on_unlink(idx)
    rec.on_unlink(idx)
    rec.close()
    rec.close()
    assert rec.snapshot()["freed"] == 1

"""Retire-bit protocol and grace-period reclamation."""

import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from depq.atomics import checkpoint
from depq.items import MAX, MIN, Arena
from depq.list_depq import ListDepq
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


def test_try_advance_with_nothing_retired_keeps_the_epoch():
    arena = Arena()
    rec = Reclaimer(arena, mode=EPOCH)
    rec.enter()
    rec.exit()
    assert rec.try_advance() is False
    assert rec._epoch == 0
    # Once a node awaits freeing, the epoch moves as before.
    idx = arena.new_item(1)
    rec.enter()
    rec.on_unlink(idx)
    rec.on_unlink(idx)
    rec.exit()
    assert rec.try_advance()
    assert not arena.is_poisoned(idx)
    assert rec.try_advance()
    assert arena.is_poisoned(idx)
    assert rec.snapshot()["freed"] == 1
    assert rec.try_advance() is False
    assert rec._epoch == 2


def test_epoch_reclamation_completes_after_real_thread_bursts():
    """Two inserters put in a burst of keys while one extractor per end
    drains it to None, on real threads; at quiescence every retired node
    gets freed."""
    d = ListDepq(reclaim_mode=EPOCH)
    cycles, burst = 40, 32   # per inserter
    burst_in = threading.Event()
    cycle = threading.Barrier(4, action=burst_in.clear)
    inserted = threading.Barrier(2, action=burst_in.set)
    keys, returned, errors = ([], []), ([], []), []

    def insert_burst(rng, out):
        for _ in range(burst):
            key = rng.randrange(1000)
            d.insert(key)
            out.append(key)
        inserted.wait(timeout=20)

    def drain(extract, out):
        while True:
            done = burst_in.is_set()
            key = extract()
            if key is not None:
                out.append(key)
            elif done:
                return

    def run(body, *args):
        try:
            for _ in range(cycles):
                cycle.wait(timeout=20)
                body(*args)
                cycle.wait(timeout=20)
        except Exception as exc:
            errors.append(exc)
            cycle.abort()
            inserted.abort()

    jobs = [(insert_burst, random.Random(seed), out) for seed, out in enumerate(keys)]
    jobs += [(drain, op, out) for op, out in zip((d.extract_min, d.extract_max), returned)]
    threads = [threading.Thread(target=run, args=job, daemon=True) for job in jobs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
    finally:
        sys.setswitchinterval(old)
    assert not errors, errors
    assert not any(t.is_alive() for t in threads)
    assert Counter(keys[0] + keys[1]) == Counter(returned[0] + returned[1])
    for _ in range(3):
        d.reclaim.try_advance()
    counts = d.reclaim.snapshot()
    assert counts["pending"] == 0
    assert counts["freed"] == counts["retired"] > 0
    assert d.audit(MIN).ok and d.audit(MAX).ok


def test_frozen_reader_blocks_deallocation():
    arena = Arena()
    rec = Reclaimer(arena, mode=EPOCH)
    idx = arena.new_item(1)

    def reader():
        rec.enter()
        checkpoint("reader-active")
        rec.exit()

    with ControlledScheduler() as sched:
        sched.spawn("reader", reader)
        sched.run_until("reader", "reader-active")
        rec.on_unlink(idx)
        rec.on_unlink(idx)
        advanced = sum(1 for _ in range(5) if rec.try_advance())
        assert advanced <= 1              # stuck behind the reader's epoch
        assert rec.snapshot()["freed"] == 0
        assert not arena.is_poisoned(idx)
        sched.run_to_completion("reader")
    # The reader's exit makes the advances its epoch held back.
    assert arena.is_poisoned(idx)
    assert rec.snapshot()["freed"] == 1


def test_stalled_inserter_frees_what_its_epoch_held_back():
    """An inserter stalls inside its epoch while both ends are drained, and
    then nothing extracts any more.  Its exit makes the advances it held
    back, so every node retired during the stall is freed."""
    d = ListDepq(reclaim_mode=EPOCH)
    for key in range(0, 80, 10):
        d.insert(key)
    with ControlledScheduler() as sched:
        sched.spawn("ins", d.insert, 35)
        sched.run_until("ins", "ins-read-link")
        while d.extract_min() is not None:
            pass
        while d.extract_max() is not None:
            pass
        stalled = d.reclaim.snapshot()
        assert stalled["pending"] > 0
        sched.run_to_completion("ins")
    counts = d.reclaim.snapshot()
    assert counts["retired"] == stalled["retired"]
    assert counts["pending"] == 0
    assert counts["freed"] == counts["retired"]
    assert d.remaining_keys() == [35]
    assert d.audit(MIN).ok and d.audit(MAX).ok


def test_try_advance_is_meaningless_in_deferred_mode():
    rec = Reclaimer(Arena(), mode=DEFERRED)
    assert rec.try_advance() is False


def test_an_exit_without_an_enter_raises():
    """In epoch mode ``exit`` reads the slot ``enter`` registered; with no
    ``enter`` on this thread it raises instead of registering one."""
    rec = Reclaimer(Arena(), mode=EPOCH)
    with pytest.raises(AttributeError):
        rec.exit()
    Reclaimer(Arena(), mode=DEFERRED).exit()


def test_close_is_idempotent():
    arena = Arena()
    rec = Reclaimer(arena, mode=DEFERRED)
    idx = arena.new_item(1)
    rec.on_unlink(idx)
    rec.on_unlink(idx)
    rec.close()
    rec.close()
    assert rec.snapshot()["freed"] == 1


class _LimboModel:
    """The freeing rule, single-threaded: a node retired at epoch ``e`` is
    freed exactly when an advance reaches ``e + 2``, or at ``close``.  An
    advance needs a node waiting and this thread outside the epoch or
    inside the current one; ``exit`` retries it as ``Reclaimer.exit`` does."""

    def __init__(self, mode):
        self.mode = mode
        self.epoch = 0
        self.entered = None
        self.waiting: dict[int, int] = {}   # index -> retire epoch
        self.freed: set[int] = set()

    def retire(self, index):
        self.waiting[index] = self.epoch

    def advance(self):
        if (self.mode != EPOCH or not self.waiting
                or self.entered not in (None, self.epoch)):
            return False
        self.epoch += 1
        self._free(lambda retired_at: retired_at + 2 <= self.epoch)
        return True

    def enter(self):
        self.entered = self.epoch

    def exit(self):
        entered, self.entered = self.entered, None
        if entered != self.epoch and self.advance():
            self.advance()

    def close(self):
        self._free(lambda retired_at: True)

    def _free(self, ready):
        for index, retired_at in list(self.waiting.items()):
            if ready(retired_at):
                del self.waiting[index]
                self.freed.add(index)


@pytest.mark.parametrize("mode", [EPOCH, DEFERRED])
@settings(deadline=None)
@given(steps=st.lists(st.sampled_from(["retire", "advance", "bracket"]), max_size=40),
       close=st.booleans())
def test_limbo_lists_free_what_the_model_frees(mode, steps, close):
    """Random single-thread sequences of retires, advances, enter/exit
    brackets and a final close: after every step the poisoned slots are
    exactly the model's freed nodes."""
    arena = Arena()
    rec = Reclaimer(arena, mode=mode)
    model = _LimboModel(mode)
    retired = []
    for step in steps + ["close"] * close:
        if step == "retire":
            idx = arena.new_item(len(retired))
            rec.on_unlink(idx)
            assert rec.on_unlink(idx)
            retired.append(idx)
            model.retire(idx)
        elif step == "advance":
            assert rec.try_advance() == model.advance()
        elif step == "bracket" and model.entered is None:
            rec.enter()
            model.enter()
        elif step == "bracket":
            rec.exit()
            model.exit()
        else:
            rec.close()
            model.close()
        assert {i for i in retired if arena.is_poisoned(i)} == model.freed
        counts = rec.snapshot()
        assert (counts["retired"], counts["freed"], counts["pending"]) == (
            len(retired), len(model.freed), len(model.waiting))

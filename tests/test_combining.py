"""The per-end serializers: batching, FIFO service, handoff, errors.

The combining engine's batching tests run on ``combining`` only.  The
contract both modes share (exactly once, FIFO, termination under stepping,
errors reaching only their own caller) has a test per property,
parametrized over the modes.
"""

import sys
import threading
import time
from functools import partial
from types import SimpleNamespace

import pytest
from helpers import join_threads, run_on_plain_threads

from depq.atomics import set_controller
from depq.combining import (COMBINING, MODES, TWO_LOCKS, Combiner, CombinerRecord,
                            make_serializer)
from depq.sched import ControlledScheduler, random_walk

#: Seconds a test that runs announces on plain threads waits for them.
BOUND_S = 20


def test_batch_cap_must_be_positive():
    with pytest.raises(ValueError):
        Combiner(lambda r: r, batch_cap=0)
    with pytest.raises(ValueError):
        make_serializer(TWO_LOCKS, lambda r: r, batch_cap=0)


def test_single_caller_serves_itself_and_finalizes_once():
    comb = Combiner(lambda r: r * 2)
    assert comb.announce(21) == 42
    snap = comb.stats.snapshot()
    assert snap["applied"] == 1
    assert snap["batches"] == 1
    assert snap["batch_sizes"] == {1: 1}


def test_two_instances_are_independent():
    a = Combiner(lambda r: ("a", r))
    b = Combiner(lambda r: ("b", r))
    assert a.announce(1) == ("a", 1)
    assert b.announce(1) == ("b", 1)
    assert a.stats.snapshot()["batches"] == 1
    assert b.stats.snapshot()["batches"] == 1


def test_overlapping_combine_passes_count_a_gauge_violation():
    """A second combine pass while one is running is what the gauge exists
    to catch; the counted overlap leaves the role usable."""
    def apply(req):
        if req == "nest":
            # A second pass, on a spare record with nothing linked behind it.
            comb._combine(CombinerRecord())
        return req

    def announce_both():
        nested = comb.announce("nest")
        return nested, comb.stats.snapshot()["gauge_violations"], comb.announce("after")

    comb = Combiner(apply)
    # On a plain thread under a bound, so a lost handoff fails, not hangs.
    [outcome] = run_on_plain_threads(announce_both, timeout=BOUND_S)
    nested, violations, after = outcome
    assert nested == "nest"
    assert violations == 1
    assert after == "after"
    assert comb.stats.snapshot()["gauge_violations"] == 1


def _park_announcers(sched, comb, count, site="cc-spin"):
    """Spawn `count` workers announcing 0..count-1 and park each at `site`:
    by default right after its announcement is published (before it first
    checks its wait flag), forcing a known announcement order."""
    for i in range(count):
        name = f"t{i}"
        sched.spawn(name, comb.announce, i)
        sched.run_until(name, site)


def _finish_in_order(sched, names):
    for name in names:
        sched.run_to_completion(name)


def test_scripted_batch_serves_all_in_announcement_order():
    applied = []

    def apply(req):
        applied.append(req)
        return req

    comb = Combiner(apply)
    with ControlledScheduler() as sched:
        _park_announcers(sched, comb, 8)
        # First announcer becomes combiner and serves the whole batch.
        _finish_in_order(sched, [f"t{i}" for i in range(8)])
        results = sched.results()

    assert applied == list(range(8))          # FIFO in announcement order
    assert results == {f"t{i}": i for i in range(8)}
    assert comb.stats.snapshot()["batch_sizes"] == {8: 1}   # one batch


def test_batch_cap_splits_into_two_batches_with_handoff():
    applied = []
    comb = Combiner(lambda r: applied.append(r) or r, batch_cap=4)
    with ControlledScheduler() as sched:
        _park_announcers(sched, comb, 8)
        sched.run_to_completion("t0")         # combiner #1 serves t0..t3
        assert applied == [0, 1, 2, 3]
        assert comb.stats.snapshot()["batch_sizes"] == {4: 1}
        _finish_in_order(sched, ["t1", "t2", "t3"])
        sched.run_to_completion("t4")         # wakes as combiner #2
        assert applied == list(range(8))
        _finish_in_order(sched, ["t5", "t6", "t7"])

    snap = comb.stats.snapshot()
    assert snap["batches"] == 2
    assert snap["batch_sizes"] == {4: 2}
    assert snap["gauge_violations"] == 0


@pytest.mark.parametrize("mode", MODES)
def test_concurrent_announces_apply_exactly_once(mode):
    """Also the stats' exactness: they are plain ints, so a lost update under
    fast thread switching would show in the totals."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _check_exactly_once(mode)
    finally:
        sys.setswitchinterval(old)


def _check_exactly_once(mode):
    per_thread = 300
    n_threads = 8
    seen = []
    lock = threading.Lock()

    def apply(req):
        with lock:
            seen.append(req)
        return req

    comb = make_serializer(mode, apply, batch_cap=16)
    errors = []

    def worker(base):
        try:
            for i in range(per_thread):
                req = (base, i)
                assert comb.announce(req) == req
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,), daemon=True)
               for t in range(n_threads)]
    for t in threads:
        t.start()
    join_threads(threads, BOUND_S)    # a shared bound, so a hang fails within it
    assert not errors
    assert len(seen) == per_thread * n_threads
    assert len(set(seen)) == len(seen)        # exactly once, no duplicates
    snap = comb.stats.snapshot()
    assert snap["applied"] == per_thread * n_threads
    assert snap["gauge_violations"] == 0
    assert sum(size * count for size, count in snap["batch_sizes"].items()) \
        == per_thread * n_threads
    assert max(snap["batch_sizes"]) <= 16


@pytest.mark.parametrize("mode", MODES)
def test_every_announce_terminates_under_fair_stepping(mode):
    # No lost wakeups: drive four announcers to completion with a seeded
    # random walk over every instrumented step, spins included.
    for seed in (1, 2, 3):
        comb = make_serializer(mode, lambda r: r * 10, batch_cap=2)
        sched = ControlledScheduler(step_limit=50_000)
        with sched:
            for i in range(4):
                sched.spawn(f"t{i}", comb.announce, i)
            sched.drive(random_walk(seed))
            assert sched.results() == {f"t{i}": i * 10 for i in range(4)}
        snap = comb.stats.snapshot()
        assert snap["applied"] == 4
        assert snap["batches"] >= 2           # at most two requests per batch


@pytest.mark.parametrize("mode", MODES)
def test_raising_request_fails_only_its_own_caller(mode):
    # Three parked announcers; t1's request raises, inside t0's batch under
    # combining, in its own batch under the lock.  The exception reaches t1
    # alone, once the batches before it are done; the rest are still served.
    def apply(req):
        if req == 1:
            raise ValueError("request 1 failed")
        return req * 10

    def announce(req):
        try:
            return comb.announce(req)
        except ValueError as exc:
            return exc, comb.stats.snapshot()["batches"]

    comb = make_serializer(mode, apply)
    site = "cc-spin" if mode == COMBINING else "lock-acquire"
    with ControlledScheduler() as sched:
        _park_announcers(sched, SimpleNamespace(announce=announce), 3, site=site)
        _finish_in_order(sched, ["t0", "t1", "t2"])
        results = sched.results()
    assert results["t0"] == 0 and results["t2"] == 20
    error, batches_before_raise = results["t1"]
    assert str(error) == "request 1 failed"
    assert comb.announce(4) == 40             # a later announce still works
    snap = comb.stats.snapshot()
    assert snap["applied"] == 4
    if mode == COMBINING:                     # one batch served all three
        assert batches_before_raise == 1
        assert snap["batch_sizes"] == {1: 1, 3: 1}
    else:                                     # every call is its own batch
        assert batches_before_raise == 2
        assert snap["batch_sizes"] == {1: 4}


def test_frozen_lock_holder_keeps_a_second_caller_waiting():
    # Plain threads, no scheduler: the waiter really blocks in the lock's
    # acquire and gets no further while the holder is held inside ``apply``.
    applied, returned = [], {}
    in_apply, go_on = threading.Event(), threading.Event()

    def apply(req):
        if req == "h":
            in_apply.set()
            go_on.wait(timeout=10)
        applied.append(req)
        return req

    def call(req):
        returned[req] = comb.announce(req)

    comb = make_serializer(TWO_LOCKS, apply)
    holder = threading.Thread(target=call, args=("h",), daemon=True)
    waiter = threading.Thread(target=call, args=("w",), daemon=True)
    holder.start()
    assert in_apply.wait(timeout=5)
    waiter.start()
    time.sleep(0.05)
    assert applied == [] and returned == {}
    assert holder.is_alive() and waiter.is_alive()
    go_on.set()
    for thread in (holder, waiter):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert applied == ["h", "w"]
    assert returned == {"h": "h", "w": "w"}


def test_a_controller_without_wait_sees_each_wait_as_a_pause():
    class Sites:
        def __init__(self):
            self.seen = []
            self.waits = []

        def pause(self, site, blocked=None):
            self.seen.append(site)
            if blocked is not None:
                self.waits.append(site)

    sites = Sites()
    set_controller(sites)
    try:
        for mode in (TWO_LOCKS, COMBINING):
            assert make_serializer(mode, lambda r: r).announce(mode) == mode
    finally:
        set_controller(None)
    assert sites.seen.count("lock-acquire") == sites.seen.count("cc-spin") == 1
    assert sorted(sites.waits) == ["cc-spin", "lock-acquire"]


def check_fifo(spans, apply_seq):
    """If request a fully completed before request b was invoked, a must
    have been applied first.  Violation: some request applied after b has a
    response stamp below b's invocation stamp."""
    by_apply = sorted(apply_seq, key=apply_seq.get)
    n = len(by_apply)
    suffix_min_resp = [float("inf")] * (n + 1)
    for pos in range(n - 1, -1, -1):
        suffix_min_resp[pos] = min(suffix_min_resp[pos + 1], spans[by_apply[pos]][1])
    for pos, req in enumerate(by_apply):
        assert suffix_min_resp[pos + 1] >= spans[req][0], (
            f"request applied after {req} completed before it was invoked")


@pytest.mark.parametrize("mode", MODES)
def test_fifo_respects_completion_order(fast_switching, mode):
    clock = threading.Lock()
    stamp = [0]

    def tick():
        with clock:
            stamp[0] += 1
            return stamp[0]

    apply_seq = {}

    def apply(req):
        apply_seq[req] = tick()  # combiner-only, no extra locking needed
        return req

    comb = make_serializer(mode, apply, batch_cap=8)
    spans = {}
    span_lock = threading.Lock()

    def worker(base):
        for i in range(200):
            req = (base, i)
            t0 = tick()
            comb.announce(req)
            t1 = tick()
            with span_lock:
                spans[req] = (t0, t1)

    run_on_plain_threads(*(partial(worker, t) for t in range(6)))

    assert len(apply_seq) == 6 * 200
    check_fifo(spans, apply_seq)

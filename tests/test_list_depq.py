"""The list-based build: the claim loop over two shared-node list queues,
serialized per end."""

import random
import threading
from collections import Counter
from functools import partial
from types import SimpleNamespace

import pytest
from helpers import EagerUnlinkListDepq, UnclaimedListDepq, run_on_plain_threads
from hypothesis import given, settings, strategies as st

from depq import items, scenarios
from depq.combining import COMBINING, TWO_LOCKS
from depq.items import MAX, MIN, ReclaimedAccessError, user_key_of
from depq.lincheck import Recorder, Verdict, check
from depq.list_depq import ListDepq
from depq.oracle import SeqDepq
from depq.reclaim import DEFERRED, EPOCH
from depq.sched import ControlledScheduler, explore_interleavings
from depq.workload import WorkloadConfig, run_stress


def test_insert_reaches_both_lists():
    d = ListDepq()
    d.insert(5)
    for end in (MIN, MAX):
        keys = [d.arena.item(i).user_key for i in d.lists.walk(end)
                if i != d.lists.dummy]
        assert keys == [5]


def test_lists_hold_opposite_orders_after_plain_inserts():
    d = ListDepq()
    for k in (1, 2, 3):
        d.insert(k)
    assert [user_key_of(k) for k in d.lists.suffix_keys(MIN)] == [1, 2, 3]
    assert [user_key_of(k) for k in d.lists.suffix_keys(MAX)] == [3, 2, 1]
    assert d.audit(MIN).ok and d.audit(MAX).ok


def test_extraction_sequence_matches_oracle():
    d = ListDepq()
    for k in (1, 2, 3):
        d.insert(k)
    assert d.extract_min() == 1
    assert d.extract_max() == 3
    assert d.extract_min() == 2
    assert d.extract_min() is None
    assert d.extract_max() is None


def test_random_traffic_matches_oracle():
    rng = random.Random(424242)
    d = ListDepq()
    oracle = SeqDepq()
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.5:
            k = rng.randrange(64)
            d.insert(k)
            oracle.insert(k)
        elif roll < 0.75:
            assert d.extract_min() == oracle.extract_min()
        else:
            assert d.extract_max() == oracle.extract_max()
    assert d.audit(MIN).ok and d.audit(MAX).ok
    assert sorted(d.remaining_keys()) == sorted(oracle.snapshot())


ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(-8, 8)),
    st.just(("extract_min", None)),
    st.just(("extract_max", None)),
), max_size=40)


@settings(deadline=None)
@given(ops)
def test_any_op_sequence_matches_oracle(sequence):
    d = ListDepq()
    oracle = SeqDepq()
    for name, arg in sequence:
        if name == "insert":
            d.insert(arg)
            oracle.insert(arg)
        elif name == "extract_min":
            assert d.extract_min() == oracle.extract_min()
        else:
            assert d.extract_max() == oracle.extract_max()
    assert d.audit(MIN).ok and d.audit(MAX).ok
    assert sorted(d.remaining_keys()) == sorted(oracle.snapshot())


def test_insert_concurrent_with_extracts_audits_clean(fast_switching):
    d = ListDepq()
    for k in range(50):
        d.insert(k)

    def inserter():
        for k in range(200):
            d.insert(k)

    def extractor(end):
        op = d.extract_min if end == MIN else d.extract_max
        for _ in range(100):
            op()

    run_on_plain_threads(inserter, partial(extractor, MIN), partial(extractor, MAX))
    assert d.audit(MIN).ok and d.audit(MAX).ok


def test_the_combiner_advances_the_epoch_once_per_request():
    # Park a batch of extract-max requests and let x0 combine them all: x0
    # tries to advance the epoch once per request it serves, the parked
    # announcers never do, and no extraction enters the epoch.
    batch = 5
    d = ListDepq(mode=COMBINING)
    for k in range(10):
        d.insert(k)
    callers = {"enter": [], "try_advance": []}
    for name, seen in callers.items():
        def recorded(original=getattr(d.reclaim, name), seen=seen):
            seen.append(threading.current_thread().name)
            return original()
        setattr(d.reclaim, name, recorded)
    with ControlledScheduler() as sched:
        for i in range(batch):
            sched.spawn(f"x{i}", d.extract_max)
            sched.run_until(f"x{i}", "cc-spin")
        baseline = d.combiner_stats(MAX).snapshot()
        assert baseline["batches"] == 0
        for i in range(batch):      # x0 combines and serves the whole batch
            sched.run_to_completion(f"x{i}")
        results = sched.results()

    assert sorted(results.values(), reverse=True) == [9, 8, 7, 6, 5]
    stats = d.combiner_stats(MAX).snapshot()
    assert stats["batch_sizes"] == {batch: 1}
    assert callers == {"enter": [], "try_advance": ["depq-sched-x0"] * batch}
    # each pop swept the logically deleted prefix behind it, so the head is
    # the prefix's last node and its own word is unmarked
    assert not d.arena.item(d.lists.head(MAX)).link[MAX] & 1


def _park_a_min_extraction_and_drain_max_past_its_node(d):
    """Park a MIN extraction at ``reserve`` on the node T it popped.  From
    this thread, insert a key below T's and drain the MAX end past T, so
    that end's sweep unlinks T, then push the epoch as far as it will go.
    T is still the MIN list's head, so it must stay allocated with that one
    unlink.  Returns the extraction's result."""
    for key in (1, 2, 3):
        d.insert(key)
    with ControlledScheduler() as sched:
        sched.spawn("min", d.extract_min)
        sched.run_until("min", "reserve")
        t = d.lists.head(MIN)
        assert d.arena.item(t).user_key == 1
        d.insert(0)
        drained = []
        while (got := d.extract_max()) is not None:
            drained.append(got)
        assert drained == [3, 2, 1, 0]
        for _ in range(6):
            d.reclaim.try_advance()
        assert d.reclaim.snapshot()["freed"] > 0    # the epoch did advance
        assert d.arena.item(t).unlinked <= 1        # raises if T was freed
        return sched.run_to_completion("min")


def test_a_node_an_extraction_holds_is_not_retired_without_its_epoch():
    # Extractions run outside the epoch: no node a consumer holds has had
    # its second unlink, because only its own sweep unlinks from its list.
    d = ListDepq(reclaim_mode=EPOCH)
    assert _park_a_min_extraction_and_drain_max_past_its_node(d) is None
    assert d.problems() == []


def test_a_pop_that_unlinks_its_node_at_once_is_caught():
    # Mutation test: with the popped node counted as unlinked at the pop,
    # the MAX sweep retires it and the epoch frees it under its consumer.
    d = EagerUnlinkListDepq(reclaim_mode=EPOCH)
    with pytest.raises(ReclaimedAccessError):
        _park_a_min_extraction_and_drain_max_past_its_node(d)


@pytest.mark.parametrize("reclaim_mode", [DEFERRED, EPOCH])
def test_every_extraction_leaves_the_head_the_only_deleted_node(reclaim_mode):
    # Every pop is swept, so after each extraction both lists' deleted
    # prefixes are exactly their heads, and the live suffix is the rest.
    d = ListDepq(reclaim_mode=reclaim_mode)
    rng = random.Random(0x4EAD)
    extractions = 0
    for _ in range(800):
        if rng.random() < 0.5:
            d.insert(rng.randrange(100))
            continue
        (d.extract_min if rng.random() < 0.5 else d.extract_max)()
        extractions += 1
        for end in (MIN, MAX):
            walk = d.lists.walk(end)
            tagged = [i for i in walk if d.arena.item(i).marked_into[end]]
            assert tagged == walk[:1] == [d.lists.head(end)]
            assert d.lists.suffix(end) == walk[1:]
    assert extractions > 300


def test_single_item_race_is_exclusive_in_every_interleaving():
    outcome = scenarios.run_single_item_race()
    assert outcome.ok, outcome.details
    assert outcome.details["winners_seen"] == ["max", "min"]
    assert outcome.details["interleavings"] == 70


def _recording_enters(d):
    """Make ``d.reclaim.enter`` record its calling thread in ``d.entered``."""
    enter, d.entered = d.reclaim.enter, []

    def recorded():
        d.entered.append(threading.current_thread().name)
        enter()
    d.reclaim.enter = recorded
    return d


@pytest.mark.parametrize(
    "mode, interleavings, reclaim_mode",
    [(TWO_LOCKS, 2, DEFERRED), (COMBINING, 200, DEFERRED),
     (TWO_LOCKS, 2, EPOCH), (COMBINING, 200, EPOCH)],
    ids=["two-locks-2", "combining-200", "two-locks-2-epoch", "combining-200-epoch"])
def test_two_min_consumers_explored_exhaustively_through_each_serializer(
        mode, interleavings, reclaim_mode):
    # A waiter is disabled, not polled, so the exploration ends without a
    # run cap: under the lock a waiter takes one step once the lock is free.
    def factory():
        d = _recording_enters(ListDepq(mode=mode, reclaim_mode=reclaim_mode))
        d.insert(1)
        d.insert(2)
        return d, [("a", lambda d: d.extract_min()), ("b", lambda d: d.extract_min())]

    outcomes = list(explore_interleavings(factory))
    for outcome in outcomes:
        assert sorted(outcome.results.values()) == [1, 2], outcome.schedule
        assert outcome.state.problems() == [], outcome.schedule
        # one epoch per insert, on this thread, and none in an extraction
        assert outcome.state.entered == [threading.current_thread().name] * 2
    assert len({tuple(o.schedule) for o in outcomes}) == len(outcomes) == interleavings
    # Either consumer may get 1, and a combiner may serve both requests.
    batches = [{1: 2}, {2: 1}] if mode == COMBINING else [{1: 2}]
    ends = {(o.results["a"], *o.state.stats()["batch_sizes"].items()) for o in outcomes}
    assert ends == {(a, *sizes.items()) for a in (1, 2) for sizes in batches}


def test_one_min_and_one_max_consumer_explored_exhaustively():
    for reclaim_mode in (DEFERRED, EPOCH):
        def factory():
            d = _recording_enters(ListDepq(mode=TWO_LOCKS, reclaim_mode=reclaim_mode))
            d.insert(1)
            d.insert(2)
            return d, [("min", lambda d: d.extract_min()), ("max", lambda d: d.extract_max())]

        runs = 0
        for outcome in explore_interleavings(factory):
            runs += 1
            assert outcome.results == {"min": 1, "max": 2}, (reclaim_mode, outcome.schedule)
            assert outcome.state.problems() == [], (reclaim_mode, outcome.schedule)
            assert outcome.state.entered == [threading.current_thread().name] * 2
        assert runs == 924, reclaim_mode


def test_twist_schedule_leaves_lists_non_opposite_but_working():
    outcome = scenarios.run_twist()
    assert outcome.ok, outcome.details
    assert outcome.details["same_order_pair"] is not None


def test_exclusivity_and_no_loss_under_stress(fast_switching):
    d = ListDepq(reclaim_mode=EPOCH)
    per_thread = 500
    inserted = Counter()
    returned = Counter()
    lock = threading.Lock()

    def inserter(seed):
        rng = random.Random(seed)
        mine = []
        for _ in range(per_thread):
            k = rng.randrange(100)
            d.insert(k)
            mine.append(k)
        with lock:
            inserted.update(mine)

    def extractor(end):
        op = d.extract_min if end == MIN else d.extract_max
        mine = []
        for _ in range(per_thread):
            got = op()
            if got is not None:
                mine.append(got)
        with lock:
            returned.update(mine)

    run_on_plain_threads(*[partial(inserter, s) for s in (11, 22, 33)],
                         *[partial(extractor, MIN) for _ in range(2)],
                         *[partial(extractor, MAX) for _ in range(2)])

    remaining = Counter(d.remaining_keys())
    assert inserted == returned + remaining          # no loss
    assert sum(inserted.values()) == 3 * per_thread  # and no invention
    assert d.audit(MIN).ok and d.audit(MAX).ok
    counts = d.counters.snapshot()
    fails, wins = counts["reserve_failures"], counts["extract_successes"]
    assert fails[MIN] <= wins[MAX]
    assert fails[MAX] <= wins[MIN]
    assert d.reclaim.snapshot()["freed"] > 0   # freed by the pops, before close


@pytest.mark.parametrize("reclaim_mode", [DEFERRED, EPOCH])
def test_retire_counts_match_double_unlinks(reclaim_mode):
    d = ListDepq(reclaim_mode=reclaim_mode)
    for k in range(30):
        d.insert(k)
    while d.extract_min() is not None:
        pass
    while d.extract_max() is not None:
        pass
    # force final sweeps at both ends via empty extractions
    d.extract_min()
    d.extract_max()
    # A poisoned slot was retired, so both lists had dropped it.
    poisoned = {i for i in range(len(d.arena)) if d.arena.is_poisoned(i)}
    removed_per_end = []
    for end in (MIN, MAX):
        linked = {i for i in range(len(d.arena))
                  if i not in poisoned and d.arena.item(i).linked_into[end]}
        reachable = set(d.lists.walk(end))
        removed_per_end.append((linked | poisoned) - reachable)
    both_removed = removed_per_end[0] & removed_per_end[1]
    counts = d.reclaim.snapshot()
    assert counts["freed"] == len(poisoned) and (reclaim_mode == DEFERRED) == (not poisoned)
    assert counts["retired"] == len(both_removed)
    assert (counts["unlink_first"] + counts["retired"]
            == len(removed_per_end[0]) + len(removed_per_end[1]))


def test_broken_build_without_reserve_check_is_caught():
    # Mutation test: drop the reservation check and the checker notices.
    d = UnclaimedListDepq()
    recorder = Recorder()
    recorded = recorder.wrap(d)
    recorded.insert(5)
    assert recorded.extract_min() == 5
    assert recorded.extract_max() == 5   # duplicate claim slips through
    result = check(recorder.snapshot())
    assert result.verdict is Verdict.NOT_LINEARIZABLE


def test_two_locks_stress_windows_are_linearizable():
    outcome = run_stress(WorkloadConfig(impl="list-depq", mode=TWO_LOCKS, seed=0x10C5),
                         windows=200)
    assert outcome.failed is None, outcome.failed
    assert len(outcome.windows) == 200
    assert all(w.verdict is Verdict.LINEARIZABLE for w in outcome.windows)


def test_two_locks_broken_build_is_caught_by_stress_windows():
    class BrokenTarget:
        def __init__(self, cfg):
            self.depq = UnclaimedListDepq(mode=cfg.mode)

        def close(self):
            pass

    outcome = run_stress(WorkloadConfig(impl="list-depq", mode=TWO_LOCKS, seed=1),
                         windows=50, _target_factory=BrokenTarget)
    assert outcome.failed is not None
    assert outcome.failed.verdict is Verdict.NOT_LINEARIZABLE


def test_lock_freedom_smoke_frozen_threads_do_not_block_others():
    # One inserter parked right before its publish CAS and one min-extractor
    # parked between its mark and its head write; inserts and
    # max-extractions on plain threads keep completing.
    d = ListDepq()
    for k in range(1000, 1200):
        d.insert(k)

    def busy_inserter():
        for k in range(1000):
            d.insert(k)
        return 1000

    def busy_max_extractor():
        done = 0
        for _ in range(1000):
            d.extract_max()
            done += 1
        return done

    with ControlledScheduler() as sched:
        sched.spawn("stuck-ins", d.insert, 5000)
        sched.spawn("stuck-ex", d.extract_min)
        sched.run_until("stuck-ins", "ins-cas")
        sched.run_until("stuck-ex", "uh-write-head")
        assert run_on_plain_threads(busy_inserter, busy_max_extractor) == [1000, 1000]
        assert d.audit(MIN).ok and d.audit(MAX).ok   # with both still parked
        sched.run_to_completion("stuck-ins")
        sched.run_to_completion("stuck-ex")
    assert d.audit(MIN).ok
    assert d.audit(MAX).ok


class CountingLock:
    """A lock that counts its acquisitions, through ``acquire`` or ``with``."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquisitions = 0

    def acquire(self, blocking=True):
        got = self._lock.acquire(blocking)
        self.acquisitions += got
        return got

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


@pytest.mark.parametrize("mode, bound", [(TWO_LOCKS, 4.0), (COMBINING, 5.0)],
                         ids=[TWO_LOCKS, COMBINING])
def test_uncontended_extraction_costs_four_atomic_rmws(monkeypatch, mode, bound):
    """One mark, one claim and one unlink flag for the node swept behind
    it: 3.0, each under the arena's rmw_lock.  The ``two-locks`` serializer
    adds none.  The combiner takes its records' lock twice: for the tail
    swap of each announce and for the size of each batch, which holds one
    extraction here, so 5.0.  The combiner's
    gauge (two fetch-adds) and an epoch CAS on every batch, with nothing
    retired to free, used to make ``two-locks`` 7.0.  The count is every
    acquisition of the arena's rmw_lock and of each end's combiner lock."""
    monkeypatch.setattr(items, "threading", SimpleNamespace(Lock=CountingLock))
    d = ListDepq(mode=mode, reclaim_mode=EPOCH)
    monkeypatch.undo()
    locks = [d.arena.rmw_lock]
    if mode == COMBINING:
        for serializer in d._ends:
            serializer._lock = CountingLock()
            locks.append(serializer._lock)
    rng = random.Random(0xE7)
    for key in rng.sample(range(1 << 20), 1000):
        d.insert(key)
    ops = (d.extract_min, d.extract_max)
    # Each end's first sweep unlinks the sentinel; its retire costs two
    # epoch CASes, once per queue.  Count the steady state after it.
    for i in range(4):
        ops[i % 2]()
    before = [lock.acquisitions for lock in locks]
    for i in range(400):
        assert ops[i % 2]() is not None
    counts = [lock.acquisitions - start for lock, start in zip(locks, before)]
    assert sum(counts) / 400 <= bound, counts
    assert d.audit(MIN).ok and d.audit(MAX).ok


def test_uncontended_insert_costs_four_locked_rmws(monkeypatch):
    """``new_item``'s append, the two publish CASes and the index insert,
    each under the arena's rmw_lock: exactly 4 per insert into a queue of
    1000 keys, which deletes nothing, so no search drops an entry."""
    monkeypatch.setattr(items, "threading", SimpleNamespace(Lock=CountingLock))
    d = ListDepq(reclaim_mode=EPOCH)
    monkeypatch.undo()
    lock = d.arena.rmw_lock
    keys = random.Random(0x1A5).sample(range(1 << 20), 2000)
    for key in keys[:1000]:
        d.insert(key)
    before = lock.acquisitions
    for key in keys[1000:]:
        d.insert(key)
    assert lock.acquisitions - before == 4 * 1000, lock.acquisitions - before
    assert d.audit(MIN).ok and d.audit(MAX).ok


@pytest.mark.parametrize("mode, locks", [(TWO_LOCKS, 3), (COMBINING, 5)],
                         ids=[TWO_LOCKS, COMBINING])
def test_a_list_depq_has_one_lock_besides_its_serializers(monkeypatch, mode, locks):
    """The arena's rmw_lock, which the reclaimer shares, plus each end's
    serializer: one lock per end lock, two per combiner."""
    made = []

    def counted_lock():
        made.append(lock := real_lock())
        return lock

    real_lock = threading.Lock
    monkeypatch.setattr(threading, "Lock", counted_lock)
    d = ListDepq(mode=mode, reclaim_mode=EPOCH)
    monkeypatch.undo()
    assert len(made) == locks
    assert d.reclaim._lock is d.arena.rmw_lock


@pytest.mark.parametrize("op", ["publish", "mark", "retire"])
def test_an_error_inside_a_critical_section_releases_the_lock(op):
    """A link word whose read raises under the rmw_lock: in the insert's
    publish CAS, or in the extraction's mark; or a limbo list whose append
    raises under it, in the retire of the sentinel's second unlink.  The
    error reaches the caller, the lock is free afterwards, and a lock held
    at a quiescent point fails the audit."""
    d = ListDepq()
    d.insert(5)
    lock = d.arena.rmw_lock

    class FailsUnderTheLock(list):
        def __getitem__(self, end):
            if lock.locked():
                raise RuntimeError("link read failed under the lock")
            return super().__getitem__(end)

        def append(self, index):
            if lock.locked():
                raise RuntimeError("limbo append failed under the lock")
            super().append(index)

    dummy = d.arena.item(d.lists.dummy)
    limbo = d.reclaim._limbo
    if op == "retire":
        assert d.extract_min() == 5     # the sentinel's first unlink
        limbo[:] = map(FailsUnderTheLock, limbo)
    else:
        dummy.link = FailsUnderTheLock(dummy.link)
    with pytest.raises(RuntimeError, match="under the lock"):
        {"publish": partial(d.insert, 3), "mark": d.extract_min,
         "retire": d.extract_max}[op]()
    assert not lock.locked()
    dummy.link = list(dummy.link)
    limbo[:] = map(list, limbo)
    assert d.audit(MIN).ok and d.audit(MAX).ok
    lock.acquire()
    try:
        report = d.audit(MIN)
    finally:
        lock.release()
    assert not report.ok and not report.index_consistent
    assert "rmw_lock held at a quiescent point" in report.notes

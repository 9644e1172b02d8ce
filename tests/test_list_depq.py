"""The list-based build: the claim loop over two shared-node list queues,
serialized per end."""

import random
import threading
from collections import Counter

import pytest
from helpers import UnclaimedListDepq
from hypothesis import given, settings, strategies as st

from depq import scenarios
from depq.atomics import AtomicCell
from depq.combining import COMBINING, TWO_LOCKS
from depq.items import MAX, MIN
from depq.lincheck import Recorder, Verdict, check
from depq.list_depq import ListDepq
from depq.oracle import SeqDepq
from depq.reclaim import DEFERRED, EPOCH
from depq.sched import ControlledScheduler
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
    assert [k.user_key for k in d.lists.suffix_keys(MIN)] == [1, 2, 3]
    assert [k.user_key for k in d.lists.suffix_keys(MAX)] == [3, 2, 1]
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

    threads = [threading.Thread(target=inserter),
               threading.Thread(target=extractor, args=(MIN,)),
               threading.Thread(target=extractor, args=(MAX,))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert d.audit(MIN).ok and d.audit(MAX).ok


def test_one_finalize_per_batch():
    # Park a batch of extract-max requests, let one combiner serve them all,
    # and count the finalizer's calls of try_advance: one per batch, not one
    # per request.
    batch = 5
    d = ListDepq(mode=COMBINING)
    for k in range(10):
        d.insert(k)
    finishes = []
    try_advance = d.reclaim.try_advance
    d.reclaim.try_advance = lambda: finishes.append(MAX) or try_advance()
    with ControlledScheduler() as sched:
        for i in range(batch):
            name = f"x{i}"
            sched.freeze(name, "cc-spin")
            sched.spawn(name, d.extract_max)
            if i == 0:
                sched.start()
            sched.wait_frozen(name)
        baseline = d.combiner_stats(MAX).snapshot()
        assert baseline["batches"] == 0
        sched.thaw("x0")
        sched.join_worker("x0")
        for i in range(1, batch):
            sched.thaw(f"x{i}")
        sched.join_all()
        results = sched.results()

    assert sorted(results.values(), reverse=True) == [9, 8, 7, 6, 5]
    stats = d.combiner_stats(MAX).snapshot()
    assert stats["batches"] == 1
    assert finishes == [MAX]    # the finalizer ran once, for the one batch
    assert stats["batch_sizes"] == {batch: 1}
    # each pop swept the logically deleted prefix behind it, so the head is
    # the prefix's last node and its own word is unmarked
    assert not d.arena.item(d.lists.head(MAX)).link[MAX].load() & 1


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
    assert outcome.details["interleavings"] > 100


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

    threads = ([threading.Thread(target=inserter, args=(s,)) for s in (11, 22, 33)]
               + [threading.Thread(target=extractor, args=(MIN,)) for _ in range(2)]
               + [threading.Thread(target=extractor, args=(MAX,)) for _ in range(2)])
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    remaining = Counter(d.remaining_keys())
    assert inserted == returned + remaining          # no loss
    assert sum(inserted.values()) == 3 * per_thread  # and no invention
    assert d.audit(MIN).ok and d.audit(MAX).ok
    counts = d.counters.snapshot()
    fails, wins = counts["reserve_failures"], counts["extract_successes"]
    assert fails[MIN] <= wins[MAX]
    assert fails[MAX] <= wins[MIN]


def test_retire_counts_match_double_unlinks():
    d = ListDepq()
    for k in range(30):
        d.insert(k)
    while d.extract_min() is not None:
        pass
    while d.extract_max() is not None:
        pass
    # force final sweeps at both ends via empty extractions
    d.extract_min()
    d.extract_max()
    removed_per_end = []
    for end in (MIN, MAX):
        linked = {i for i in d.arena.all_indices()
                  if d.arena.item(i).linked_into[end]}
        reachable = set(d.lists.walk(end))
        removed_per_end.append(linked - reachable)
    both_removed = removed_per_end[0] & removed_per_end[1]
    counts = d.reclaim.snapshot()
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
    # One inserter frozen right before its publish CAS and one min-extractor
    # frozen between its mark and its head write; inserts and
    # max-extractions keep completing.
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
        sched.freeze("stuck-ins", "ins-cas")
        sched.freeze("stuck-ex", "uh-write-head")
        sched.spawn("stuck-ins", d.insert, 5000)
        sched.spawn("stuck-ex", d.extract_min)
        sched.spawn("ins", busy_inserter)
        sched.spawn("max", busy_max_extractor)
        sched.start()
        sched.wait_frozen("stuck-ins")
        sched.wait_frozen("stuck-ex")
        assert sched.join_worker("ins", timeout=10) == 1000
        assert sched.join_worker("max", timeout=10) == 1000
        assert d.audit(MIN).ok and d.audit(MAX).ok   # with both still frozen
        sched.thaw("stuck-ins")
        sched.thaw("stuck-ex")
    assert d.audit(MIN).ok
    assert d.audit(MAX).ok


def test_uncontended_extraction_costs_four_atomic_rmws(monkeypatch):
    """One tail swap, one mark, one claim and one unlink flag for the node
    swept behind it.  The combiner's gauge (two fetch-adds) and an epoch CAS
    on every batch, with nothing retired to free, used to make it 7.0."""
    d = ListDepq(reclaim_mode=EPOCH)
    rng = random.Random(0xE7)
    for key in rng.sample(range(1 << 20), 1000):
        d.insert(key)
    ops = (d.extract_min, d.extract_max)
    # Each end's first sweep unlinks the sentinel; its retire costs two
    # epoch CASes, once per queue.  Count the steady state after it.
    for i in range(4):
        ops[i % 2]()
    rmws = Counter()
    for name in ("swap", "compare_and_swap", "fetch_or", "fetch_add"):
        def counted(cell, *args, _name=name, _op=getattr(AtomicCell, name), **kwargs):
            rmws[_name] += 1
            return _op(cell, *args, **kwargs)
        monkeypatch.setattr(AtomicCell, name, counted)
    for i in range(400):
        assert ops[i % 2]() is not None
    monkeypatch.undo()
    assert sum(rmws.values()) / 400 <= 4.0, rmws
    assert d.audit(MIN).ok and d.audit(MAX).ok

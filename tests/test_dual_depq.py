"""The generic two-queue construction and its multi-consumer wrappers."""

import random
import threading
from collections import Counter
from functools import partial

import pytest
from helpers import run_on_plain_threads

from depq.dual_depq import (COMBINING, TWO_LOCKS, DualDepq, make_multi_consumer)
from depq.items import MAX, MIN, Arena, try_reserve, user_key_of
from depq.lincheck import Recorder, Verdict, check
from depq.oracle import LockedHeapPq, SeqDepq
from depq.ordered_list import ListPair, ListPq
from depq.sched import ControlledScheduler
from depq import dual_depq, scenarios


def heap_dual():
    arena = Arena()
    return DualDepq(arena, LockedHeapPq(arena), LockedHeapPq(arena, descending=True))


def list_dual():
    arena = Arena()
    pair = ListPair(arena)
    return DualDepq(arena, ListPq(pair, MIN), ListPq(pair, MAX))


@pytest.fixture(params=["heap", "list"])
def dual(request):
    return heap_dual() if request.param == "heap" else list_dual()


def test_single_key_comes_back_from_either_end(dual):
    dual.insert(7)
    assert dual.extract_min() == 7
    dual.insert(7)
    assert dual.extract_max() == 7


def test_three_keys_drain_in_order(dual):
    for k in (1, 2, 3):
        dual.insert(k)
    assert dual.extract_min() == 1
    assert dual.extract_min() == 2
    assert dual.extract_min() == 3
    assert dual.extract_min() is None


def test_extract_max_order(dual):
    for k in (1, 2, 3):
        dual.insert(k)
    assert [dual.extract_max() for _ in range(4)] == [3, 2, 1, None]


def test_empty_queue_signals_none(dual):
    assert dual.extract_min() is None
    assert dual.extract_max() is None


def test_pre_reserved_item_is_skipped(dual):
    for k in (1, 2):
        dual.insert(k)
    # claim the smaller item behind the queue's back
    for i in range(len(dual.arena)):
        item = dual.arena.item(i)
        if item.key is not None and user_key_of(item.key) == 1:
            assert try_reserve(item, dual.arena.rmw_lock)
    assert dual.extract_min() == 2
    assert dual.extract_min() is None


def test_random_traffic_matches_oracle(dual):
    rng = random.Random(5150)
    oracle = SeqDepq()
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.5:
            k = rng.randrange(64)
            dual.insert(k)
            oracle.insert(k)
        elif roll < 0.75:
            assert dual.extract_min() == oracle.extract_min()
        else:
            assert dual.extract_max() == oracle.extract_max()


class StuckQueue:
    """Breaks the queue contract: every pop returns the same index, claimed
    or not, as a list would if extraction left its mark bit clear."""

    has_delete = False

    def __init__(self, index):
        self.index = index

    def pq_extract_first(self):
        return self.index


def test_a_queue_that_pops_a_claimed_index_again_fails_the_claim_loop():
    arena = Arena()
    index = arena.new_item(5)
    assert try_reserve(arena.item(index), arena.rmw_lock)
    dual = DualDepq(arena, StuckQueue(index), StuckQueue(index))
    with pytest.raises(AssertionError, match=f"min end popped index {index} twice"):
        dual.extract_min()
    with pytest.raises(AssertionError, match=f"max end popped index {index} twice"):
        dual.extract_max()


def test_dual_list_never_calls_pq_delete(monkeypatch):
    # Lists advertise no delete, so a claim leaves the other list alone.
    def refuse(self, index):
        raise AssertionError("pq_delete called on a list-backed queue")

    monkeypatch.setattr(ListPq, "pq_delete", refuse)
    d = list_dual()
    for k in (1, 2, 3, 4):
        d.insert(k)
    assert [d.extract_min(), d.extract_max(), d.extract_min(), d.extract_max()] == [1, 4, 2, 3]
    assert d.extract_min() is None


def test_claim_deletes_from_other_heap():
    d = heap_dual()
    for k in (1, 2, 3):
        d.insert(k)
    assert d.extract_min() == 1
    assert len(d.max_pq) == 2     # 1 deleted eagerly
    assert d.extract_min() == 2
    assert len(d.max_pq) == 1
    assert d.extract_max() == 3
    assert d.extract_max() is None


def test_heaps_stay_bounded_by_live_keys():
    # Raw entries, dead ones included, stay within 2 * live + 16 per heap.
    d = heap_dual()
    rng = random.Random(2024)
    live = 0
    for _ in range(200):
        d.insert(rng.randrange(1 << 20))
        live += 1
    for _ in range(20_000):
        roll = rng.random()
        if roll < 0.5 or live < 150:
            d.insert(rng.randrange(1 << 20))
            live += 1
        elif (d.extract_min() if roll < 0.75 else d.extract_max()) is not None:
            live -= 1
        for heap in (d.min_pq, d.max_pq):
            assert len(heap._heap) <= 2 * live + 16
    assert sorted(d.remaining_keys()) == sorted(
        d.arena.item(i).user_key for i in d.max_pq.contents())
    assert d.problems() == []


def test_claim_delete_races_other_end_pop():
    # MIN claims the only item and freezes before deleting it from the max
    # heap; MAX pops that item there, fails its claim and reports empty.
    d = heap_dual()
    deletes = []
    real_delete = d.max_pq.pq_delete

    def spy(index):
        deletes.append(real_delete(index))
        return deletes[-1]

    d.max_pq.pq_delete = spy
    recorder = Recorder()
    recorded = recorder.wrap(d)
    recorded.insert(7)
    with ControlledScheduler() as sched:
        sched.spawn("min", recorded.extract_min)
        sched.run_until("min", "pq-delete")
        assert recorded.extract_max() is None
        assert d.reserve_failures[MAX] == 1
        assert deletes == []
        assert sched.run_to_completion("min") == 7
    assert deletes == [False]
    assert d.min_pq.problems() == [] and d.max_pq.problems() == []
    assert len(d.min_pq) == len(d.max_pq) == 0
    assert check(recorder.snapshot()).verdict is Verdict.LINEARIZABLE


def test_insert_frozen_between_queues_is_visible_to_min_only():
    d = heap_dual()
    recorder = Recorder()
    recorded = recorder.wrap(d)
    with ControlledScheduler() as sched:
        sched.spawn("ins", recorded.insert, 7)
        sched.run_until("ins", "between-pq-inserts")
        # the half-inserted key must never come out of the max end ...
        assert recorded.extract_max() is None
        # ... but the min end may already return it
        assert recorded.extract_min() == 7
        history = recorder.snapshot()
        sched.run_to_completion("ins")
    assert check(history).verdict is Verdict.LINEARIZABLE


def test_counterexample_schedule_rejected_by_checker():
    outcome = scenarios.run_counterexample()
    assert outcome.ok, outcome.details
    assert outcome.details["verdict"] == "NOT_LINEARIZABLE"


def test_reserve_failures_are_charged_to_other_end_successes(monkeypatch):
    # Log every reservation attempt as (item key, end, won).
    d = heap_dual()
    log = []
    calling_end = [MIN]
    real_try_reserve = dual_depq.try_reserve

    def logged(item, lock):
        won = real_try_reserve(item, lock)
        log.append((item.key, calling_end[0], won))
        return won

    monkeypatch.setattr(dual_depq, "try_reserve", logged)
    for k in range(40):
        d.insert(k)
    # interleave single-consumer extractions from both ends
    rng = random.Random(3)
    for _ in range(60):
        calling_end[0] = MIN if rng.random() < 0.5 else MAX
        if calling_end[0] == MIN:
            d.extract_min()
        else:
            d.extract_max()
    winners = {}
    for pos, (key, end, won) in enumerate(log):
        if won:
            winners[key] = (pos, end)
    for pos, (key, end, won) in enumerate(log):
        if not won:
            assert key in winners, "failed claim with no winner"
            win_pos, win_end = winners[key]
            assert win_pos < pos, "claim failed before anyone succeeded"
            assert win_end != end, "winner was not the opposite end"


def test_adversary_schedule_starves_one_extractor():
    # One end can be made to retry without bound while the other end keeps
    # succeeding; retries grow linearly with adversary rounds.
    def run_rounds(rounds):
        d = heap_dual()
        sched = ControlledScheduler()
        stop = object()

        def victim(_state):
            return d.extract_max()

        def adversary(_state):
            for k in range(rounds):
                d.insert(k)
                assert d.extract_min() == k

        with sched:
            sched.spawn("victim", victim, None)
            sched.spawn("adversary", adversary, None)
            for _ in range(rounds):
                # adversary inserts a key and immediately claims it ...
                sched.run_until("adversary", "pq-insert")
                sched.grant("adversary")          # insert into min queue
                sched.run_until("adversary", "pq-insert")
                sched.grant("adversary")          # insert into max queue
                sched.run_until("adversary", "reserve")
                sched.grant("adversary")          # claim succeeds
                # ... then the victim pops the stale item and fails its claim
                sched.run_until("victim", "pq-extract")
                sched.grant("victim")
                sched.run_until("victim", "reserve")
                sched.grant("victim")
            sched.run_to_completion("adversary")
            sched.run_to_completion("victim")
        return d.counters.snapshot()["reserve_failures"][MAX]

    assert run_rounds(10) == 10
    assert run_rounds(100) == 100


@pytest.mark.parametrize("mode", [TWO_LOCKS, COMBINING])
def test_multi_consumer_single_threaded_equivalence(mode):
    plain = heap_dual()
    wrapped = make_multi_consumer(heap_dual(), mode)
    rng = random.Random(777)
    ops = []
    for _ in range(500):
        roll = rng.random()
        if roll < 0.5:
            ops.append(("insert", rng.randrange(32)))
        elif roll < 0.75:
            ops.append(("extract_min", None))
        else:
            ops.append(("extract_max", None))
    for name, arg in ops:
        a = getattr(plain, name)(*([arg] if arg is not None else []))
        b = getattr(wrapped, name)(*([arg] if arg is not None else []))
        assert a == b


@pytest.mark.parametrize("mode", [TWO_LOCKS, COMBINING])
def test_multi_consumer_window_histories_linearizable(mode):
    from depq.lincheck import Verdict
    from depq.workload import WorkloadConfig, run_stress

    cfg = WorkloadConfig(impl="dual-heap", mode=mode, seed=808)
    outcome = run_stress(cfg, windows=40)
    assert outcome.failed is None
    assert all(w.verdict is Verdict.LINEARIZABLE for w in outcome.windows)


@pytest.mark.parametrize("mode", [TWO_LOCKS, COMBINING])
def test_multi_consumer_stress_accounting(mode, fast_switching):
    wrapped = make_multi_consumer(heap_dual(), mode)
    inner = wrapped.inner
    per_thread = 1000
    inserted = Counter()
    returned = Counter()
    lock = threading.Lock()

    def inserter(seed):
        rng = random.Random(seed)
        mine = []
        for _ in range(per_thread):
            k = rng.randrange(100)
            wrapped.insert(k)
            mine.append(k)
        with lock:
            inserted.update(mine)

    def extractor(end):
        op = wrapped.extract_min if end == MIN else wrapped.extract_max
        mine = []
        for _ in range(per_thread):
            got = op()
            if got is not None:
                mine.append(got)
        with lock:
            returned.update(mine)

    run_on_plain_threads(*[partial(inserter, s) for s in (1, 2)],
                         *[partial(extractor, MIN) for _ in range(4)],
                         *[partial(extractor, MAX) for _ in range(4)])

    remaining = Counter(inner.arena.item(i).user_key
                        for i in inner.min_pq.contents()
                        if inner.arena.item(i).reserved == 0)
    assert inserted == returned + remaining
    # every claim failure at one end is covered by a success at the other
    counts = inner.counters.snapshot()
    fails, wins = counts["reserve_failures"], counts["extract_successes"]
    assert fails[MIN] <= wins[MAX]
    assert fails[MAX] <= wins[MIN]

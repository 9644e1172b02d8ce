"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Scales and time bounds are asserted, not aspirational.
"""

import random
import threading
import time
import zlib
from collections import Counter
from functools import partial

from helpers import naive_check, random_history, run_on_plain_threads

from depq import scenarios
from depq.combining import Combiner
from depq.dual_depq import COMBINING, DualDepq
from depq.items import MAX, MIN, Arena
from depq.lincheck import Verdict, check, validate_history
from depq.list_depq import ListDepq
from depq.oracle import LockedHeapPq, SeqDepq
from depq.ordered_list import ListPair, ListPq
from depq.reclaim import EPOCH
from depq.sched import ControlledScheduler
from depq.workload import WorkloadConfig, run_stress


class _Criterion:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.2f}s, budget {self.budget_s}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"{self.name} exceeded its time budget: {elapsed:.2f}s")


def _list_dual():
    arena = Arena()
    pair = ListPair(arena)
    return DualDepq(arena, ListPq(pair, MIN), ListPq(pair, MAX))


def _heap_dual():
    arena = Arena()
    return DualDepq(arena, LockedHeapPq(arena), LockedHeapPq(arena, descending=True))


def test_oracle_equivalence():
    """10^4 random single-threaded ops on every build match the sequential
    semantics exactly."""
    with _Criterion("oracle-equivalence", 10.0):
        targets = {"list": ListDepq(), "dual-heap": _heap_dual(),
                   "dual-list": _list_dual()}
        for name, target in targets.items():
            seed = 0xACCE97 + zlib.crc32(name.encode()) % 1000
            rng = random.Random(seed)
            oracle = SeqDepq()
            mismatches = 0
            for _ in range(10_000):
                roll = rng.random()
                if roll < 0.5:
                    k = rng.randrange(512)
                    target.insert(k)
                    oracle.insert(k)
                elif roll < 0.75:
                    if target.extract_min() != oracle.extract_min():
                        mismatches += 1
                else:
                    if target.extract_max() != oracle.extract_max():
                        mismatches += 1
            assert mismatches == 0, f"{name}: {mismatches} mismatches (seed {seed})"


def test_linearizability_suite():
    """500 randomized schedule-controlled windows per build family, all
    linearizable, none inconclusive."""
    with _Criterion("linearizability-suite", 300.0):
        for impl, mode in (("list-depq", COMBINING), ("dual-heap", COMBINING)):
            cfg = WorkloadConfig(impl=impl, mode=mode, seed=0xC0FFEE)
            outcome = run_stress(cfg, windows=500)
            assert outcome.failed is None, outcome.failed
            assert all(w.verdict is Verdict.LINEARIZABLE for w in outcome.windows)
            assert len(outcome.windows) == 500


def test_counterexample_is_rejected():
    """The forced same-end double-consumer schedule is not linearizable."""
    with _Criterion("counterexample", 1.0):
        outcome = scenarios.run_counterexample()
        assert outcome.ok, outcome.details
        assert outcome.details["verdict"] == "NOT_LINEARIZABLE"


def test_invariant_auditor():
    """Structure audits pass at 10^3 quiescent checkpoints under mixed
    stress and at the two scheduler park points."""
    with _Criterion("invariant-auditor", 120.0):
        d = ListDepq()
        rng = random.Random(0xAAD1)
        violations = 0
        for _checkpoint in range(1000):
            def burst(seed):
                brng = random.Random(seed)
                for _ in range(8):
                    roll = brng.random()
                    if roll < 0.5:
                        d.insert(brng.randrange(64))
                    elif roll < 0.75:
                        d.extract_min()
                    else:
                        d.extract_max()

            run_on_plain_threads(*(partial(burst, rng.getrandbits(32)) for _ in range(4)))
            for end in (MIN, MAX):
                if not d.audit(end).ok:
                    violations += 1
        assert violations == 0

        # park point 1: an inserter held immediately before its publish CAS
        d2 = ListDepq()
        for k in (1, 3):
            d2.insert(k)
        with ControlledScheduler() as sched:
            sched.spawn("ins", d2.insert, 2)
            sched.run_until("ins", "ins-cas")
            assert d2.audit(MIN).ok and d2.audit(MAX).ok
            sched.run_to_completion("ins")

        # park point 2: an extractor held between its mark and its head
        # write, where the head is still the prefix's second-last node
        d3 = ListDepq()
        for k in (1, 2):
            d3.insert(k)
        with ControlledScheduler() as sched:
            sched.spawn("ex", d3.extract_min)
            sched.run_until("ex", "uh-write-head")
            report = d3.audit(MIN)
            assert report.ok, report.describe()
            prefix = [idx for idx, _, tagged in report.path if tagged]
            assert d3.lists.head(MIN) == prefix[-2]
            sched.run_to_completion("ex")


def test_exclusivity_and_no_loss():
    """10^5 mixed operations over 8 threads: returned keys are a
    duplicate-free subset of inserted keys and nothing is lost."""
    with _Criterion("exclusivity-no-loss", 120.0):
        d = ListDepq()
        per_thread = 12_500
        results = {}
        lock = threading.Lock()

        def mixed(slot):
            # unique keys per thread: slot picks a disjoint key block
            rng = random.Random(slot)
            next_key = slot * 10_000_000
            inserted, returned = [], []
            for _ in range(per_thread):
                roll = rng.random()
                if roll < 0.45:
                    d.insert(next_key)
                    inserted.append(next_key)
                    next_key += 1
                else:
                    got = d.extract_min() if roll < 0.75 else d.extract_max()
                    if got is not None:
                        returned.append(got)
            with lock:
                results[slot] = (inserted, returned)

        run_on_plain_threads(*(partial(mixed, s) for s in range(8)))

        inserted = Counter()
        returned = Counter()
        for ins, ret in results.values():
            inserted.update(ins)
            returned.update(ret)
        assert max(returned.values(), default=1) == 1      # duplicate-free
        assert not (returned - inserted)                   # subset of inserted
        remaining = Counter(d.remaining_keys())
        assert inserted == returned + remaining            # nothing lost
        assert d.audit(MIN).ok and d.audit(MAX).ok


def test_combining_contract():
    """10^5 announces: each served once, and service order consistent with
    announcement completion order.  One holder at a time is
    ``tests/test_combining.py::test_one_thread_at_a_time_inside_apply``."""
    with _Criterion("combining-contract", 120.0):
        apply_seq = {}
        stamp_lock = threading.Lock()
        stamp = [0]

        def tick():
            with stamp_lock:
                stamp[0] += 1
                return stamp[0]

        def apply(req):
            apply_seq[req] = tick()   # combiner-only
            return req

        comb = Combiner(apply, batch_cap=32)
        spans = {}
        span_lock = threading.Lock()
        per_thread = 12_500

        def worker(base):
            local = {}
            for i in range(per_thread):
                req = (base, i)
                t0 = tick()
                got = comb.announce(req)
                t1 = tick()
                assert got == req
                local[req] = (t0, t1)
            with span_lock:
                spans.update(local)

        run_on_plain_threads(*(partial(worker, b) for b in range(8)))

        snap = comb.stats.snapshot()
        assert snap["applied"] == 8 * per_thread
        assert sum(s * c for s, c in snap["batch_sizes"].items()) == 8 * per_thread

        by_apply = sorted(apply_seq, key=apply_seq.get)
        n = len(by_apply)
        assert n == 8 * per_thread
        suffix_min_resp = [float("inf")] * (n + 1)
        for pos in range(n - 1, -1, -1):
            suffix_min_resp[pos] = min(suffix_min_resp[pos + 1],
                                       spans[by_apply[pos]][1])
        for pos, req in enumerate(by_apply):
            assert suffix_min_resp[pos + 1] >= spans[req][0], (
                "a request was applied after one that completed before it began")


def test_retire_protocol():
    """Exactly two unlink reports then one retirement per fully removed
    node; a parked reader pins the epoch and blocks deallocation."""
    with _Criterion("retire-protocol", 60.0):
        d = ListDepq(reclaim_mode=EPOCH)
        rng = random.Random(0x4E71)

        def mixed(seed):
            mrng = random.Random(seed)
            for _ in range(2000):
                roll = mrng.random()
                if roll < 0.45:
                    d.insert(mrng.randrange(64))
                elif roll < 0.75:
                    d.extract_min()
                else:
                    d.extract_max()

        run_on_plain_threads(*(partial(mixed, rng.getrandbits(32)) for _ in range(4)))
        while d.extract_min() is not None:
            pass
        d.extract_min()   # once more to trigger a final batch sweep
        d.extract_max()

        removed_per_end = []
        for end in (MIN, MAX):
            linked = {i for i in range(len(d.arena))
                      if not d.arena.is_poisoned(i) and d.arena.item(i).linked_into[end]}
            linked |= {i for i in range(len(d.arena)) if d.arena.is_poisoned(i)}
            reachable = set(d.lists.walk(end))
            removed_per_end.append(linked - reachable)
        both = removed_per_end[0] & removed_per_end[1]
        counts = d.reclaim.snapshot()
        assert counts["retired"] == len(both)
        assert (counts["unlink_first"] + counts["retired"]
                == len(removed_per_end[0]) + len(removed_per_end[1]))

        # parked reader: an operation parked inside its epoch bracket pins it
        d2 = ListDepq(reclaim_mode=EPOCH)
        for k in range(8):
            d2.insert(k)
        with ControlledScheduler() as sched:
            sched.spawn("reader", d2.insert, 99)
            sched.run_until("reader", "between-list-inserts")
            while d2.extract_min() is not None:
                pass
            d2.extract_max()   # second-list removals retire the claimed nodes
            freed_before = d2.reclaim.snapshot()["freed"]
            for _ in range(6):
                d2.reclaim.try_advance()
            assert d2.reclaim.snapshot()["freed"] == freed_before == 0
            assert d2.reclaim.snapshot()["retired"] > 0
            sched.run_to_completion("reader")
        for _ in range(3):
            d2.reclaim.try_advance()
        assert d2.reclaim.snapshot()["freed"] > 0


def test_lock_freedom_smoke():
    """With one inserter parked before its CAS and one extractor parked
    mid-removal, plain threads still complete 10^3 operations each."""
    with _Criterion("lock-freedom-smoke", 10.0):
        d = ListDepq()
        for k in range(2000, 2200):
            d.insert(k)

        def busy_inserter():
            for k in range(1000):
                d.insert(k)
            return 1000

        def busy_max_extractor():
            for n in range(1000):
                d.extract_max()
            return 1000

        with ControlledScheduler() as sched:
            sched.spawn("stuck-ins", d.insert, 5000)
            sched.spawn("stuck-ex", d.extract_min)
            sched.run_until("stuck-ins", "ins-cas")
            sched.run_until("stuck-ex", "uh-write-head")
            assert run_on_plain_threads(busy_inserter, busy_max_extractor,
                                        timeout=9) == [1000, 1000]
            sched.run_to_completion("stuck-ins")
            sched.run_to_completion("stuck-ex")


def test_twist_replay():
    """The forced insert-vs-extract interleaving leaves the two lists in
    non-opposite orders while audits and later extractions stay correct."""
    with _Criterion("twist-replay", 1.0):
        outcome = scenarios.run_twist()
        assert outcome.ok, outcome.details
        assert outcome.details["same_order_pair"] is not None
        assert outcome.details["audits_ok"]
        assert outcome.details["drain"] == [4, 2, None, None]


def test_index_start_reclaimed_replay():
    """An insert parked after choosing an index node as its search start
    keeps that node allocated while both ends extract and retire it; the
    insert then lands and the node is freed only after it exits."""
    with _Criterion("index-start-reclaimed", 2.0):
        outcome = scenarios.run_index_start_reclaimed()
        assert outcome.ok, outcome.details
        assert outcome.details["error"] is None
        assert outcome.details["start_retired_while_frozen"]
        assert outcome.details["start_held_while_frozen"]
        assert outcome.details["start_freed_after_exit"]


def test_checker_self_test():
    """On a corpus of small histories (including mutated negatives) the
    memoized checker agrees with the brute-force enumerator."""
    with _Criterion("checker-self-test", 60.0):
        rng = random.Random(0x5EEFCAFE)
        checked = 0
        negatives = 0
        while checked < 250:
            events = random_history(rng, max_ops=8, mutate=(checked % 3 == 0))
            try:
                validate_history(events)
            except ValueError:
                continue
            if sum(e.completed for e in events) > 8:
                continue
            fast = check(events)
            assert fast.verdict is not Verdict.SEARCH_BUDGET_EXCEEDED
            slow = naive_check(events)
            assert (fast.verdict is Verdict.LINEARIZABLE) == slow, events
            if not slow:
                negatives += 1
            checked += 1
        assert negatives >= 20   # the corpus genuinely contains bad histories

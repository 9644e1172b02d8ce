"""The per-end skiplist index over the shared-node lists: search length,
audit claims, and real-thread runs of the build that uses it."""

import random
import sys
import threading
import time
from collections import Counter

from depq import atomics
from depq.combining import COMBINING
from depq.items import MAX, MIN, Arena
from depq.list_depq import ListDepq
from depq.ordered_list import LEVELS, ListPair, tower_height
from depq.reclaim import EPOCH


class _CountReads:
    """Trace controller that only counts list link reads of inserts."""

    def __init__(self):
        self.reads = 0

    def pause(self, site):
        if site == "ins-read-link":
            self.reads += 1


def _insert(lists, index):
    lists.insert(index, MIN)
    lists.insert(index, MAX)


def test_tower_heights_are_geometric():
    heights = Counter(tower_height(uid) for uid in range(1 << 14))
    assert max(heights) <= LEVELS
    for level in range(1, 6):
        at_least = sum(n for h, n in heights.items() if h >= level)
        assert abs(at_least / (1 << 14) - 2.0 ** -level) < 0.02, (level, at_least)


def test_insert_search_reads_few_links_at_ten_thousand_keys():
    """An insert reads O(1) list links once the index has found its start:
    at 10^4 stored keys a walk from the head read about 5000."""
    rng = random.Random(0x5EA1)
    arena = Arena()
    lists = ListPair(arena)
    for _ in range(10_000):
        _insert(lists, arena.new_item(rng.randrange(1 << 20)))
    counter = _CountReads()
    atomics.set_controller(counter)
    try:
        for _ in range(500):
            _insert(lists, arena.new_item(rng.randrange(1 << 20)))
    finally:
        atomics.set_controller(None)
    mean = counter.reads / 1000
    assert mean <= 4, mean
    assert lists.audit(MIN).ok and lists.audit(MAX).ok


def _small_pair():
    arena = Arena()
    lists = ListPair(arena)
    for key in range(16):
        _insert(lists, arena.new_item(key))
    assert len(lists.index_walk(MIN)) >= 2
    return lists


def test_audit_flags_a_live_tower_on_a_deleted_node():
    lists = _small_pair()
    victim = lists.index_walk(MIN)[0]
    while lists.extract_first(MIN) not in (victim.index, None):
        pass
    assert victim.dead and lists.audit(MIN).ok
    victim.dead = False   # as if the consumer had not marked it dead
    report = lists.audit(MIN)
    assert not report.index_consistent and not report.ok
    assert "[FAIL] index consistent" in report.describe()


def test_audit_flags_an_out_of_order_index_level():
    lists = _small_pair()
    first, second = lists.index_walk(MAX)[:2]
    first.key, second.key = second.key, first.key
    report = lists.audit(MAX)
    assert not report.index_consistent
    assert any("out of order" in note for note in report.notes)


def _hammer(depq, inserters=3, per_end=2, inserts=1500, extracts=1000, seed=0):
    """Real threads: ``inserters`` inserters and ``per_end`` extractors per
    end, under a 10 us switch interval.  Returns (inserted, returned)
    multisets; fails on any worker exception or a worker still running
    after 20 s."""
    inserted, returned = Counter(), Counter()
    errors = []
    lock = threading.Lock()

    def insert(tseed):
        rng = random.Random(tseed)
        mine = [rng.randrange(256) for _ in range(inserts)]
        for key in mine:
            depq.insert(key)
        with lock:
            inserted.update(mine)

    def extract(op):
        mine = [got for _ in range(extracts) if (got := op()) is not None]
        with lock:
            returned.update(mine)

    def guarded(body, arg):
        try:
            body(arg)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    rng = random.Random(seed)
    jobs = [(insert, rng.getrandbits(32)) for _ in range(inserters)]
    jobs += [(extract, op) for op in (depq.extract_min, depq.extract_max)
             for _ in range(per_end)]
    threads = [threading.Thread(target=guarded, args=job, daemon=True) for job in jobs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 20
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(old)
    assert not errors, errors
    assert not any(t.is_alive() for t in threads)
    return inserted, returned


def test_real_thread_stress_list_depq_epoch():
    started = time.monotonic()
    d = ListDepq(reclaim_mode=EPOCH)
    inserted, returned = _hammer(d, seed=1)
    assert inserted == returned + Counter(d.remaining_keys())
    assert d.audit(MIN).ok and d.audit(MAX).ok
    assert d.reclaim.snapshot()["freed"] > 0
    d.close()
    assert time.monotonic() - started < 5


def test_real_thread_stress_list_depq_combining():
    started = time.monotonic()
    d = ListDepq(mode=COMBINING)
    inserted, returned = _hammer(d, seed=2)
    assert inserted == returned + Counter(d.remaining_keys())
    assert d.audit(MIN).ok and d.audit(MAX).ok
    assert d.reclaim.snapshot()["retired"] > 0
    d.close()   # deferred mode frees at close
    counts = d.reclaim.snapshot()
    assert counts["freed"] == counts["retired"] > 0
    assert time.monotonic() - started < 5

"""The skiplist index shared by both lists of a pair: search count and
length, stale starts, audit claims, a mutation build, and real-thread runs
of the build that uses it."""

import random
import sys
import threading
import time
from collections import Counter

from helpers import EarlyTowerListDepq

from depq import atomics
from depq.combining import COMBINING
from depq.items import MAX, MIN, Arena, user_key_of
from depq.list_depq import ListDepq
from depq.ordered_list import LEVELS, ListPair, tower_height
from depq.reclaim import EPOCH
from depq.sched import ControlledScheduler


class _CountReads:
    """Trace controller that only counts list link reads of inserts."""

    def __init__(self):
        self.reads = 0

    def pause(self, site, blocked=None):
        if site == "ins-read-link":
            self.reads += 1


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
        lists.insert(arena.new_item(rng.randrange(1 << 20)))
    counter = _CountReads()
    atomics.set_controller(counter)
    try:
        for _ in range(500):
            lists.insert(arena.new_item(rng.randrange(1 << 20)))
    finally:
        atomics.set_controller(None)
    mean = counter.reads / 1000
    assert mean <= 4, mean
    assert lists.audit(MIN).ok and lists.audit(MAX).ok


def test_one_index_search_per_pair_insert():
    """One search serves both lists, and one tower per item serves both ends,
    reading the item's own deletion tags as its dead flags."""
    rng = random.Random(0x1D5)
    arena = Arena()
    lists = ListPair(arena)
    searches = []
    search = lists._index_search

    def counted(k, preds):
        searches.append(k)
        return search(k, preds)

    lists._index_search = counted
    keys = [rng.randrange(500) for _ in range(300)]
    for key in keys:
        lists.insert(arena.new_item(key))
    assert len(searches) == len(keys)
    towers = lists.index_walk()
    assert towers and all(t.dead is arena.item(t.index).marked_into for t in towers)
    assert len({t.index for t in towers}) == len(towers)
    assert [arena.item(i).user_key for i in lists.suffix(MIN)] == sorted(keys)
    assert [arena.item(i).user_key for i in lists.suffix(MAX)] == sorted(keys, reverse=True)
    assert lists.audit(MIN).ok and lists.audit(MAX).ok


def test_stale_descending_start_is_held_by_the_epoch():
    """An insert parked between its two publishes, after its search chose a
    descending start D, keeps D allocated while both ends are drained and D
    is retired; the insert then lands, and D is freed only after it exits."""
    d = ListDepq(reclaim_mode=EPOCH)
    keys = list(range(0, 80, 10))
    for key in keys:
        d.insert(key)
    # Not the first or last key: sweeps keep each list's last deleted node.
    start = next(t for t in d.lists.index_walk() if 0 < user_key_of(t.key) < 70)
    key = user_key_of(start.key) - 5   # D is the first tower above it
    starts = []
    search = d.lists._index_search

    def recorded(k, preds):
        starts.append(search(k, preds))
        return starts[-1]

    d.lists._index_search = recorded
    returned = Counter()
    with ControlledScheduler() as sched:
        sched.spawn("ins", d.insert, key)
        sched.run_until("ins", "between-list-inserts")   # on the ascending list only
        assert starts[0][1] is start
        for extract in (d.extract_min, d.extract_max):
            while (got := extract()) is not None:
                returned[got] += 1
        assert d.arena.item(start.index).unlinked == 2   # retired
        for _ in range(6):
            d.reclaim.try_advance()
        assert not d.arena.is_poisoned(start.index)
        sched.run_to_completion("ins")
    last = len(d.arena) - 1   # the last item made
    item = d.arena.item(last)
    assert user_key_of(item.key) == key
    assert item.linked_into == [True, True] and last in d.lists.walk(MAX)
    assert d.audit(MIN).ok and d.audit(MAX).ok
    assert Counter(keys + [key]) == returned + Counter(d.remaining_keys())
    for _ in range(3):
        d.reclaim.try_advance()
    assert d.arena.is_poisoned(start.index)


def _insert_racing_an_unlinked_tower(depq):
    """Step an insert of 50 to between its two publishes, insert 40, whose
    first index tower above would be 50's, finish 50 and drain from the max
    end.  Returns (problems while 50 was between its publishes, keys
    drained, keys left, problems at the end)."""
    depq.insert(100)
    with ControlledScheduler() as sched:
        sched.spawn("ins50", depq.insert, 50)
        sched.run_until("ins50", "between-list-inserts")
        depq.insert(40)
        mid = depq.problems()
        sched.run_to_completion("ins50")
    drained = []
    while (got := depq.extract_max()) is not None:
        drained.append(got)
    return mid, drained, depq.remaining_keys(), depq.problems()


def test_descending_start_is_never_a_node_off_the_descending_list():
    d = ListDepq()
    mid, drained, left, problems = _insert_racing_an_unlinked_tower(d)
    assert any(user_key_of(t.key) == 50 for t in d.lists.index_walk())   # 50 has a tower
    assert mid == [] and drained == [100, 50, 40] and left == [] and problems == []


def test_tower_linked_before_the_descending_publish_is_caught():
    # Mutation test: 40 links itself behind 50 while 50 is not yet on the
    # descending list; 50's own publish then cuts 40 off that list.
    d = EarlyTowerListDepq()
    mid, drained, left, problems = _insert_racing_an_unlinked_tower(d)
    assert any("not on both lists" in p for p in mid)
    assert drained == [100, 50] and left == [40]


def _small_pair():
    arena = Arena()
    lists = ListPair(arena)
    for key in range(16):
        lists.insert(arena.new_item(key))
    assert len(lists.index_walk()) >= 2
    return lists


def test_audit_flags_a_live_tower_on_a_deleted_node():
    lists = _small_pair()
    victim = lists.index_walk()[0]
    while lists.extract_first(MIN) not in (victim.index, None):
        lists.sweep_head(MIN)
    assert victim.dead == [True, False] and lists.audit(MIN).ok
    # A tower with flags of its own, which the consumer's tag store missed.
    victim.dead = [False, False]
    report = lists.audit(MIN)
    assert not report.index_consistent and not report.ok
    assert "[FAIL] index consistent" in report.describe()


def test_audit_flags_an_out_of_order_index_level():
    lists = _small_pair()
    first, second = lists.index_walk()[:2]
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

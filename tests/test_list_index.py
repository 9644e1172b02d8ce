"""The sorted-key index shared by both lists of a pair: search count and
length, stale starts, chunk splits and drops, audit claims, a mutation
build, and real-thread runs of the build that uses it."""

import random
import sys
import threading
import time
from collections import Counter

from helpers import EarlyEntryListDepq

from depq import atomics, ordered_list
from depq.combining import COMBINING
from depq.items import MAX, MIN, UID_MASK, Arena, key_of, uid_of, user_key_of
from depq.list_depq import ListDepq
from depq.ordered_list import CHUNK_CAP, ListPair
from depq.reclaim import EPOCH
from depq.sched import ControlledScheduler


class _CountReads:
    """Trace controller that only counts list link reads of inserts."""

    def __init__(self):
        self.reads = 0

    def pause(self, site, blocked=None):
        if site == "ins-read-link":
            self.reads += 1


def test_insert_search_reads_few_links_at_ten_thousand_keys():
    """An insert reads one list link per publish once the index has found
    its start, since every node on both lists has an entry: at 10^4 stored
    keys a walk from the head read about 5000."""
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
    assert mean <= 1.1, mean
    assert lists.audit(MIN).ok and lists.audit(MAX).ok


def test_one_index_search_per_pair_insert():
    """One search serves both lists, and one entry per item serves both
    ends: the item's own key object, in key order."""
    rng = random.Random(0x1D5)
    arena = Arena()
    lists = ListPair(arena)
    searches = []
    search = lists._index_search

    def counted(k):
        searches.append(k)
        return search(k)

    lists._index_search = counted
    keys = [rng.randrange(500) for _ in range(300)]
    for key in keys:
        lists.insert(arena.new_item(key))
    assert len(searches) == len(keys)
    entries = lists.index_keys()
    assert entries == sorted(arena.item(i).key for i in lists.suffix(MIN))
    assert all(k is arena.item(k & UID_MASK).key for k in entries)
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
    start_key = next(k for k in d.lists.index_keys() if 0 < user_key_of(k) < 70)
    start = uid_of(start_key)
    key = user_key_of(start_key) - 5   # D is the first entry above it
    starts = []
    search = d.lists._index_search

    def recorded(k):
        starts.append(search(k))
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
        assert d.arena.item(start).unlinked == 2   # retired
        for _ in range(6):
            d.reclaim.try_advance()
        assert not d.arena.is_poisoned(start)
        sched.run_to_completion("ins")
    last = len(d.arena) - 1   # the last item made
    item = d.arena.item(last)
    assert user_key_of(item.key) == key
    assert item.linked_into == (True, True) and last in d.lists.walk(MAX)
    assert d.audit(MIN).ok and d.audit(MAX).ok
    assert Counter(keys + [key]) == returned + Counter(d.remaining_keys())
    for _ in range(3):
        d.reclaim.try_advance()
    assert d.arena.is_poisoned(start)


def _insert_racing_an_unindexed_node(depq):
    """Step an insert of 50 to between its two publishes, insert 40, whose
    first index entry above would be 50's, finish 50 and drain from the max
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
    mid, drained, left, problems = _insert_racing_an_unindexed_node(d)
    assert any(user_key_of(k) == 50 for k in d.lists.index_keys())   # 50 has an entry
    assert mid == [] and drained == [100, 50, 40] and left == [] and problems == []


def test_tower_linked_before_the_descending_publish_is_caught():
    # Mutation test: 40 links itself behind 50 while 50 is not yet on the
    # descending list; 50's own publish then cuts 40 off that list.
    d = EarlyEntryListDepq()
    mid, drained, left, problems = _insert_racing_an_unindexed_node(d)
    assert any("not on both lists" in p for p in mid)
    assert drained == [100, 50] and left == [40]


def _pair_of(keys):
    arena = Arena()
    lists = ListPair(arena)
    for key in keys:
        lists.insert(arena.new_item(key))
    return lists


def _small_pair():
    lists = _pair_of(range(16))
    assert len(lists.index_keys()) == 16
    return lists


def _failed_index_audit(lists, end, note):
    report = lists.audit(end)
    assert not report.index_consistent and not report.ok
    assert "[FAIL] index consistent" in report.describe()
    assert any(note in n for n in report.notes), report.notes


def test_audit_flags_an_out_of_order_index_level():
    lists = _small_pair()
    chunk = lists._chunks[0]
    chunk[3], chunk[4] = chunk[4], chunk[3]
    _failed_index_audit(lists, MAX, "out of order")


def test_audit_flags_maxes_that_disagree_with_their_chunks():
    lists = _small_pair()
    lists._maxes[0] = lists._chunks[0][-2]
    _failed_index_audit(lists, MIN, "does not end at its max")


def test_audit_flags_an_entry_that_is_not_its_items_key():
    lists = _small_pair()
    chunk = lists._chunks[0]
    # Still in order, between the keys 4 and 6, but it names key 6's slot.
    chunk[5] = key_of(5, uid_of(chunk[6]))
    _failed_index_audit(lists, MIN, "is not the key of item")


def test_chunks_split_past_the_cap_and_stay_sorted():
    rng = random.Random(0xC4)
    keys = [rng.randrange(1000) for _ in range(5 * CHUNK_CAP)]
    lists = _pair_of(keys)
    assert len(lists._chunks) >= 5
    assert all(len(chunk) <= CHUNK_CAP for chunk in lists._chunks)
    assert [user_key_of(k) for k in lists.index_keys()] == sorted(keys)
    assert lists.audit(MIN).ok and lists.audit(MAX).ok


def test_searches_drop_dead_entries_and_empty_chunks():
    """An entry goes when a search reads it with its slot reclaimed or its
    item dead on both ends; one dead on a single end stays, a start for
    the other.  A chunk left empty goes with its max."""
    d = ListDepq(reclaim_mode=EPOCH)
    for key in range(3 * CHUNK_CAP):
        d.insert(key)
    while d.inner.max_pq.pq_extract_first() is not None:
        pass                                  # every node dead on MAX, unclaimed
    for _ in range(CHUNK_CAP + 10):
        d.inner.min_pq.pq_extract_first()     # the lowest ones dead on MIN too
    for _ in range(3):
        d.reclaim.try_advance()
    lists, arena = d.lists, d.arena
    slots = [uid_of(k) for k in lists.index_keys()[:CHUNK_CAP + 10]]
    assert 0 < sum(map(arena.is_poisoned, slots)) < len(slots)
    chunks = len(lists._chunks)
    for key in range(3 * CHUNK_CAP):
        lists._index_search(key_of(key, 0))
    assert [user_key_of(k) for k in lists.index_keys()] == list(range(CHUNK_CAP + 10,
                                                                      3 * CHUNK_CAP))
    assert len(lists._chunks) < chunks
    assert d.audit(MIN).ok and d.audit(MAX).ok


def _searched_starts(lists, rng, searches=500):
    """Search ``searches`` random keys; check that every start lies on its
    side of the key and is live on its end.  Returns the starts found."""
    arena = lists.arena
    found = 0
    for _ in range(searches):
        k = key_of(rng.randrange(1 << 20), UID_MASK)
        ascending, descending = lists._index_search(k)
        if ascending is not None:
            item = arena.item(ascending)
            assert item.key < k and not item.marked_into[MIN]
            found += 1
        if descending is not None:
            item = arena.item(descending)
            assert item.key > k and not item.marked_into[MAX]
            found += 1
    return found


def test_a_search_over_a_split_seen_half_done_returns_valid_starts():
    """The upper half copied out, not yet deleted from the chunk, and
    ``maxes`` not updated."""
    rng = random.Random(0x5B)
    lists = _pair_of(rng.randrange(1 << 20) for _ in range(3 * CHUNK_CAP))
    chunks = lists._chunks
    chunks.insert(2, chunks[1][len(chunks[1]) // 2:])
    assert _searched_starts(lists, rng) > 600


def test_a_search_over_entries_shifted_under_it_returns_valid_starts(monkeypatch):
    """Between a search's bisect of a chunk and its reads, entries before
    the bisect point are inserted (shifting lower entries above it) or
    deleted (shifting higher ones below it), as a concurrent writer would."""
    rng = random.Random(0x5C)
    lists = _pair_of(rng.randrange(1 << 20) for _ in range(3 * CHUNK_CAP))
    bisect = ordered_list.bisect_left
    grow = [True]

    def shifting(seq, k):
        j = bisect(seq, k)
        if seq is not lists._maxes and j >= 2:
            grow[0] = not grow[0]
            if grow[0]:
                seq[j - 2:j - 2] = seq[j - 2:j]   # two entries below k repeat past j
            else:
                del seq[j - 2:j]                  # entries above k move below j
        return j

    monkeypatch.setattr(ordered_list, "bisect_left", shifting)
    assert _searched_starts(lists, rng) > 500


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


def test_real_thread_stress_races_chunk_splits_and_drops():
    """Lock-free searches race the splits of a pair prefilled past several
    chunk caps, and the drops of entries dead on both ends."""
    started = time.monotonic()
    d = ListDepq(reclaim_mode=EPOCH)
    rng = random.Random(3)
    prefill = [rng.randrange(256) for _ in range(4 * CHUNK_CAP)]
    for key in prefill:
        d.insert(key)
    # The max end claims every node; the min end then deletes the lower
    # half from its list too, so the inserts' searches meet entries dead
    # on both ends.
    drained = Counter()
    while (got := d.extract_max()) is not None:
        drained[got] += 1
    for _ in range(2 * CHUNK_CAP):
        d.inner.min_pq.pq_extract_first()
    before = list(d.lists._chunks)
    entries = len(d.lists.index_keys())
    assert len(before) >= 4
    inserted, returned = _hammer(d, seed=3)
    assert inserted + Counter(prefill) == returned + drained + Counter(d.remaining_keys())
    assert d.audit(MIN).ok and d.audit(MAX).ok
    chunks = d.lists._chunks
    assert any(all(chunk is not old for old in before) for chunk in chunks)   # a split
    assert len(d.lists.index_keys()) < entries + sum(inserted.values())       # drops
    d.close()
    assert time.monotonic() - started < 5

"""Key model, item creation, and the reservation flag."""

import gc
import random
import tracemalloc
from functools import partial

import pytest
from helpers import run_on_plain_threads
from hypothesis import given, strategies as st

from depq.atomics import AtomicCell
from depq.combining import MODES
from depq.items import (MAX, MIN, NONE_IDX, POISONED, Arena, is_reserved, key_less,
                        key_of, pack_link, try_reserve, uid_of, unpack_link,
                        user_key_of)
from depq.lincheck import Recorder
from depq.list_depq import ListDepq
from depq.ordered_list import ListPair
from depq.reclaim import DEFERRED, EPOCH
from depq.workload import BUILDS, WorkloadConfig


def test_new_item_starts_unreserved():
    arena = Arena()
    for k in (5, -3, 0):
        item = arena.item(arena.new_item(k))
        assert user_key_of(item.key) == k
        assert not is_reserved(item)
        assert item.unlinked == 0


def test_new_item_has_no_list_fields():
    arena = Arena()
    item = arena.item(arena.new_item(1))
    for name in ("link", "linked_into", "marked_into"):
        with pytest.raises(AttributeError):
            getattr(item, name)


def test_list_insert_gives_the_node_its_list_fields():
    arena = Arena()
    lists = ListPair(arena)
    for k in range(8):
        index = arena.new_item(k)
        item = arena.item(index)
        lists.insert(index)
        # Ascending keys: last on MIN, first on MAX.
        assert unpack_link(item.link[MIN]) == (NONE_IDX, 0)
        assert unpack_link(item.link[MAX]) == (NONE_IDX if k == 0 else index - 1, 0)
        assert item.linked_into == [True, True]
        assert item.marked_into == [False, False]
        # Its one index entry is its own key object, not a copy.
        (entry,) = [e for e in lists.index_keys() if uid_of(e) == index]
        assert entry is item.key


@pytest.mark.parametrize("impl, mode, reclaim_mode", [
    (impl, mode, reclaim_mode) for impl in BUILDS for mode in MODES
    for reclaim_mode in (DEFERRED, EPOCH) if impl == "list-depq" or reclaim_mode == DEFERRED])
def test_no_build_constructs_an_atomic_cell(monkeypatch, impl, mode, reclaim_mode):
    """Every shared word is a plain value (see :mod:`depq.atomics`): neither
    the build, nor its operations, nor a recorder around them makes a cell."""
    built = []
    real_init = AtomicCell.__init__

    def counted(cell, *args, **kwargs):
        built.append(cell)
        real_init(cell, *args, **kwargs)

    monkeypatch.setattr(AtomicCell, "__init__", counted)
    depq = BUILDS[impl](WorkloadConfig(impl=impl, mode=mode, reclaim_mode=reclaim_mode))
    for key in range(50):
        depq.insert(key)
    assert (depq.extract_min(), depq.extract_max()) == (0, 49)
    assert Recorder().wrap(depq).extract_min() == 1
    monkeypatch.undo()
    assert built == []
    assert sorted(depq.remaining_keys()) == list(range(2, 49))


def test_new_item_costs_under_450_bytes():
    # Every object one new_item call allocates, the arena slot included.
    count = 10_000
    arena = Arena()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(count):
            arena.new_item(k)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / count < 450, grown / count


def test_duplicate_user_keys_get_distinct_uids():
    arena = Arena()
    a = arena.item(arena.new_item(5))
    b = arena.item(arena.new_item(5))
    assert a.key != b.key
    assert uid_of(a.key) != uid_of(b.key)
    assert key_less(a.key, b.key)  # earlier uid wins the tie


def test_uids_strictly_increase_per_arena():
    arena = Arena()
    uids = [uid_of(arena.item(arena.new_item(0)).key) for _ in range(100)]
    assert uids == sorted(uids)
    assert len(set(uids)) == len(uids)


def test_uid_is_the_arena_index():
    arena = Arena()
    arena.new_dummy()
    for k in (3, 3, -1):
        index = arena.new_item(k)
        assert uid_of(arena.item(index).key) == index


def test_try_reserve_first_wins_second_loses():
    arena = Arena()
    item = arena.item(arena.new_item(1))
    lock = arena.rmw_lock
    assert try_reserve(item, lock) is True
    assert try_reserve(item, lock) is False
    assert try_reserve(item, lock) is False


def test_concurrent_reserve_has_exactly_one_winner():
    # 10^4 items, several threads race a test-and-set on each.
    arena = Arena()
    indices = [arena.new_item(i) for i in range(10_000)]
    wins = [[] for _ in range(4)]

    def racer(slot):
        mine = wins[slot]
        for index in indices:
            if try_reserve(arena.item(index), arena.rmw_lock):
                mine.append(index)

    run_on_plain_threads(*(partial(racer, i) for i in range(4)))
    total = sum(len(w) for w in wins)
    assert total == len(indices)
    claimed = set()
    for w in wins:
        for idx in w:
            assert idx not in claimed
            claimed.add(idx)


def test_key_less_is_lexicographic():
    assert key_less(key_of(3, 10), key_of(5, 1))
    assert key_less(key_of(5, 1), key_of(5, 2))
    assert not key_less(key_of(5, 2), key_of(5, 1))


def test_key_less_antisymmetric_on_random_pairs():
    rng = random.Random(2024)
    for _ in range(100_000):
        a = key_of(rng.randrange(50), rng.randrange(1000))
        b = key_of(rng.randrange(50), rng.randrange(1000))
        assert not (key_less(a, b) and key_less(b, a))


keys = st.builds(key_of, st.integers(-1000, 1000), st.integers(0, 1000))


@given(keys)
def test_key_less_irreflexive(a):
    assert not key_less(a, a)


@given(keys, keys)
def test_key_less_total_on_distinct(a, b):
    if a != b:
        assert key_less(a, b) != key_less(b, a)


@given(keys, keys, keys)
def test_key_less_transitive(a, b, c):
    if key_less(a, b) and key_less(b, c):
        assert key_less(a, c)


def test_link_word_packing_roundtrip():
    for succ in (NONE_IDX, 0, 1, 7, 123456):
        for mark in (0, 1):
            assert unpack_link(pack_link(succ, mark)) == (succ, mark)
    assert pack_link(NONE_IDX, 0) == 0  # fresh cells start at zero


def test_poisoned_slot_access_raises():
    arena = Arena()
    idx = arena.new_item(1)
    arena.slots[idx] = POISONED     # as the reclaimer frees a slot
    with pytest.raises(AssertionError):
        arena.item(idx)


user_keys = st.integers(-2**70, 2**70)
uids = st.integers(0, 2**64 - 1)


@given(user_keys, uids, user_keys, uids)
def test_key_of_embeds_the_lexicographic_order(ua, ia, ub, ib):
    assert (key_of(ua, ia) < key_of(ub, ib)) == ((ua, ia) < (ub, ib))
    assert (key_of(ua, ia) < key_of(ua, ib)) == (ia < ib)   # a tie on the user key
    assert (user_key_of(key_of(ua, ia)), uid_of(key_of(ua, ia))) == (ua, ia)


@pytest.mark.parametrize("bad", [2.5, "3"])
def test_non_integer_key_is_rejected_before_any_state_changes(bad):
    d = ListDepq()
    d.insert(1)
    size = len(d.arena)
    with pytest.raises(TypeError):
        d.insert(bad)
    assert len(d.arena) == size
    assert d.extract_min() == 1 and d.extract_min() is None


def test_key_with_index_method_is_converted_exactly():
    class Big:
        def __index__(self):
            return 2**70 + 5

    arena = Arena()
    item = arena.item(arena.new_item(Big()))
    assert type(item.key) is int
    assert user_key_of(item.key) == 2**70 + 5
    np = pytest.importorskip("numpy")
    item = arena.item(arena.new_item(np.int64(-5)))
    assert type(item.key) is int and item.user_key == -5
    assert key_less(item.key, key_of(0, 0))


@pytest.mark.parametrize("impl, bound", [("dual-heap", 1.05), ("list-depq", 4.05)])
def test_objects_the_collector_tracks_per_insert(impl, bound):
    """A key is an untracked int, and so is an index entry, the key
    itself: an insert leaves the item and, on the lists, its three
    list-field lists for the collector to track, and nothing more."""
    count = 10_000
    depq = BUILDS[impl](WorkloadConfig(impl=impl))
    gc.collect()
    before = len(gc.get_objects())
    for key in range(count):
        depq.insert(key)
    gc.collect()
    per_insert = (len(gc.get_objects()) - before) / count
    assert per_insert <= bound, per_insert

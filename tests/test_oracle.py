"""Sequential semantics and the locked indexed heap."""

import random

import pytest

from depq.items import UID_BITS, Arena
from depq.oracle import HeapOrderError, LockedHeapPq, SeqDepq, seq_apply


def test_seq_depq_basic():
    s = SeqDepq([1, 2, 3])
    assert s.extract_min() == 1
    assert s.extract_max() == 3
    assert s.extract_min() == 2
    assert s.extract_min() is None
    assert SeqDepq().extract_max() is None


def test_seq_depq_keeps_duplicates():
    s = SeqDepq()
    s.insert(5)
    s.insert(5)
    assert s.extract_min() == 5
    assert s.extract_max() == 5
    assert s.extract_min() is None


def test_seq_apply_dispatch():
    s = SeqDepq()
    assert seq_apply(s, ("Insert", 4)) == (s, None)
    assert seq_apply(s, ("ExtractMin", None)) == (s, 4)
    assert seq_apply(s, ("ExtractMax", None)) == (s, None)
    with pytest.raises(ValueError):
        seq_apply(s, ("Frobnicate", None))


def test_heap_extracts_minimum():
    arena = Arena()
    pq = LockedHeapPq(arena)
    idx = {k: arena.new_item(k) for k in (5, 1, 3)}
    for i in idx.values():
        pq.pq_insert(i)
    assert pq.pq_extract_first() == idx[1]


def test_heap_descending_extracts_maximum():
    arena = Arena()
    pq = LockedHeapPq(arena, descending=True)
    idx = {k: arena.new_item(k) for k in (5, 1, 3)}
    for i in idx.values():
        pq.pq_insert(i)
    assert pq.pq_extract_first() == idx[5]


def test_heap_delete_arbitrary_then_order_preserved():
    arena = Arena()
    pq = LockedHeapPq(arena)
    idx = {k: arena.new_item(k) for k in (5, 1, 3)}
    for i in idx.values():
        pq.pq_insert(i)
    assert pq.pq_delete(idx[3]) is True
    assert pq.pq_extract_first() == idx[1]
    assert pq.pq_extract_first() == idx[5]
    assert pq.pq_extract_first() is None


def test_heap_delete_absent_is_noop():
    arena = Arena()
    pq = LockedHeapPq(arena)
    i = arena.new_item(7)
    assert pq.pq_delete(i) is False
    pq.pq_insert(i)
    assert pq.pq_delete(i) is True
    assert pq.pq_delete(i) is False


def test_heap_property_holds_after_every_operation():
    rng = random.Random(12)
    arena = Arena()
    for descending in (False, True):
        pq = LockedHeapPq(arena, descending=descending)
        live = []
        for _ in range(2000):
            roll = rng.random()
            if roll < 0.5 or not live:
                i = arena.new_item(rng.randrange(100))
                pq.pq_insert(i)
                live.append(i)
            elif roll < 0.8:
                got = pq.pq_extract_first()
                live.remove(got)
            else:
                victim = rng.choice(live)
                assert pq.pq_delete(victim)
                live.remove(victim)
            pq.check_heap()
        assert len(pq) == len(live)


def test_heap_matches_sorted_drain():
    rng = random.Random(99)
    arena = Arena()
    pq = LockedHeapPq(arena)
    keys = [rng.randrange(50) for _ in range(200)]
    for k in keys:
        pq.pq_insert(arena.new_item(k))
    drained = []
    while True:
        got = pq.pq_extract_first()
        if got is None:
            break
        drained.append(arena.item(got).user_key)
    assert drained == sorted(keys)


def test_check_heap_detects_corruption():
    arena = Arena()
    pq = LockedHeapPq(arena)
    for k in (1, 2, 3):
        pq.pq_insert(arena.new_item(k))
    pq._heap.reverse()  # deliberate damage
    with pytest.raises(HeapOrderError):
        pq.check_heap()


@pytest.mark.parametrize("descending", [False, True])
def test_check_heap_detects_entry_with_wrong_key(descending):
    arena = Arena()
    pq = LockedHeapPq(arena, descending=descending)
    for k in (1, 2, 3):
        pq.pq_insert(arena.new_item(k))
    pq.check_heap()
    # A leaf whose key moves away from the top keeps the order intact: ten
    # more on its user key, above its uid, on either heap.
    pq._heap[-1] += 10 << UID_BITS
    with pytest.raises(HeapOrderError, match="does not carry"):
        pq.check_heap()


def test_check_heap_detects_live_index_without_entry():
    arena = Arena()
    pq = LockedHeapPq(arena)
    for k in (1, 2, 3):
        pq.pq_insert(arena.new_item(k))
    pq._heap.pop()  # a leaf: order still holds, but its item is live
    with pytest.raises(HeapOrderError, match="has 0 entries"):
        pq.check_heap()

"""Ground truth: sequential double-ended queue semantics and a coarse-locked
binary heap usable as either underlying priority queue.

``SeqDepq`` defines what the concurrent structures must look like to any
single observer; the differential tests and the linearizability checker
both replay operations through it.  ``LockedHeapPq`` is deliberately boring:
one lock around the standard library's ``heapq``, with a lazy arbitrary
delete, so it is obviously linearizable and exercises the generic
construction's delete from the other queue.
"""

from __future__ import annotations

import threading
from bisect import insort
from collections import Counter
from heapq import heapify, heappop, heappush

from .atomics import checkpoint, sited
from .items import UID_MASK, Arena


class SeqDepq:
    """Single-threaded ordered multiset with extract at both ends.

    Works over any totally ordered values: user keys for checker states,
    packed item keys (see :func:`~depq.items.key_of`) for differential
    tests.
    """

    def __init__(self, items=()):
        self._keys = sorted(items)

    def insert(self, key) -> None:
        insort(self._keys, key)

    def extract_min(self):
        return self._keys.pop(0) if self._keys else None

    def extract_max(self):
        return self._keys.pop() if self._keys else None

    def __len__(self) -> int:
        return len(self._keys)

    def snapshot(self) -> tuple:
        return tuple(self._keys)


def seq_apply(state: SeqDepq, op: tuple):
    """Apply one operation tuple ('Insert', k) / ('ExtractMin', None) /
    ('ExtractMax', None); returns (state, result), mutating in place."""
    kind, arg = op
    if kind == "Insert":
        state.insert(arg)
        return state, None
    if kind == "ExtractMin":
        return state, state.extract_min()
    if kind == "ExtractMax":
        return state, state.extract_max()
    raise ValueError(f"unknown operation kind {kind!r}")


class HeapOrderError(AssertionError):
    """The heap violated its order relation or its bookkeeping."""


#: Dead entries a heap may hold beyond its live count before it is rebuilt.
_SLACK = 16


class LockedHeapPq:
    """Linearizable single-ended priority queue: ``heapq`` + one lock.

    Each entry is one int, the item's key, whose low 64 bits are its uid,
    the item's arena index; ``descending=True`` negates it, turning
    extract-first into extract-largest.  So every sift runs in the standard
    library's C heap and compares plain ints.  Delete is lazy: ``_live``
    holds the indices still on the queue, and an entry whose index is not
    in it is dead and skipped when popped.  Once the heap holds more than
    ``2 * live + _SLACK`` entries it is rebuilt from its live ones, so its
    length stays within about twice the live count and delete costs O(1)
    amortized.  Deleting an absent item is a no-op returning False: with
    both queues sharing items, a delete from one side can race an
    extraction that already removed the item here.
    """

    has_delete = True

    def __init__(self, arena: Arena, descending: bool = False):
        self.arena = arena
        self._keys = arena.keys
        self.descending = descending
        self._heap: list[int] = []
        self._live: set[int] = set()
        self._lock = threading.Lock()

    def _entry(self, index: int) -> int:
        """The heap entry of the item at ``index``."""
        key = self._keys[index]
        return -key if self.descending else key

    def _index_of(self, entry: int) -> int:
        """The arena index an entry carries."""
        return (-entry if self.descending else entry) & UID_MASK

    @sited
    def pq_insert(self, index: int) -> None:
        checkpoint("pq-insert")
        entry = self._entry(index)
        lock = self._lock
        lock.acquire()
        try:
            heappush(self._heap, entry)
            self._live.add(index)
        finally:
            lock.release()

    @sited
    def pq_extract_first(self) -> int | None:
        checkpoint("pq-extract")
        lock = self._lock
        lock.acquire()
        try:
            heap, live, descending = self._heap, self._live, self.descending
            while heap:
                entry = heappop(heap)
                index = (-entry if descending else entry) & UID_MASK
                if index in live:
                    live.remove(index)
                    if len(heap) > 2 * len(live) + _SLACK:
                        self._drop_dead()
                    return index
            return None
        finally:
            lock.release()

    @sited
    def pq_delete(self, index: int) -> bool:
        checkpoint("pq-delete")
        lock = self._lock
        lock.acquire()
        try:
            live = self._live
            if index not in live:
                return False
            live.remove(index)
            if len(self._heap) > 2 * len(live) + _SLACK:
                self._drop_dead()
            return True
        finally:
            lock.release()

    def __len__(self) -> int:
        return len(self._live)

    def contents(self) -> list[int]:
        with self._lock:
            return list(self._live)

    def problems(self) -> list[str]:
        try:
            self.check_heap()
        except HeapOrderError as exc:
            return [str(exc)]
        return []

    def _drop_dead(self) -> None:
        """Rebuild the heap from its live entries (lock held)."""
        heap, live, index_of = self._heap, self._live, self._index_of
        heap[:] = [entry for entry in heap if index_of(entry) in live]
        heapify(heap)

    def check_heap(self) -> None:
        """Debug sweep: order holds at every parent/child edge, every entry
        carries its item's key, and every live index has exactly one entry."""
        with self._lock:
            heap, index_of = self._heap, self._index_of
            for pos in range(1, len(heap)):
                if heap[pos] < heap[(pos - 1) // 2]:
                    raise HeapOrderError(
                        f"slot {pos} precedes its parent under this relation")
            for entry in heap:
                index = index_of(entry)
                if entry != self._entry(index):
                    raise HeapOrderError(
                        f"entry {entry} does not carry item {index}'s key")
            entries = Counter(map(index_of, heap))
            for index in self._live:
                if entries[index] != 1:
                    raise HeapOrderError(
                        f"live item {index} has {entries[index]} entries")

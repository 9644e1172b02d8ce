"""Ground truth: sequential double-ended queue semantics and a coarse-locked
indexed binary heap usable as either underlying priority queue.

``SeqDepq`` defines what the concurrent structures must look like to any
single observer; the differential tests and the linearizability checker
both replay operations through it.  ``LockedHeapPq`` is deliberately boring:
one lock around a position-indexed binary heap, with arbitrary delete, so
it is obviously linearizable and exercises the optional-delete path of the
generic construction.
"""

from __future__ import annotations

import threading
from bisect import insort

from .atomics import checkpoint
from .items import Arena, Key


class SeqDepq:
    """Single-threaded ordered multiset with extract at both ends.

    Works over any totally ordered values: plain ints for checker states,
    (user_key, uid) pairs for differential tests.
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
    """The heap array violated its order relation."""


class LockedHeapPq:
    """Linearizable single-ended priority queue: binary heap + one lock.

    ``descending=True`` flips the order relation, turning extract-first
    into extract-largest.  A position index maps item index -> heap slot,
    which makes arbitrary delete O(log n).  Deleting an absent item is a
    no-op returning False: with both queues sharing items, a delete from
    one side can race an extraction that already removed the item here.
    """

    has_delete = True

    def __init__(self, arena: Arena, descending: bool = False):
        self.arena = arena
        self.descending = descending
        self._heap: list[int] = []
        self._pos: dict[int, int] = {}
        self._lock = threading.Lock()

    def _before(self, a: Key, b: Key) -> bool:
        return (b < a) if self.descending else (a < b)

    def _key(self, index: int) -> Key:
        key = self.arena.item(index).key
        assert key is not None
        return key

    def pq_insert(self, index: int) -> None:
        checkpoint("pq-insert")
        with self._lock:
            self._heap.append(index)
            self._pos[index] = len(self._heap) - 1
            self._sift_up(len(self._heap) - 1)

    def pq_extract_first(self) -> int | None:
        checkpoint("pq-extract")
        with self._lock:
            if not self._heap:
                return None
            return self._remove_at(0)

    def pq_delete(self, index: int) -> bool:
        checkpoint("pq-delete")
        with self._lock:
            pos = self._pos.get(index)
            if pos is None:
                return False
            self._remove_at(pos)
            return True

    def __len__(self) -> int:
        return len(self._heap)

    def contents(self) -> list[int]:
        with self._lock:
            return list(self._heap)

    def problems(self) -> list[str]:
        try:
            self.check_heap()
        except HeapOrderError as exc:
            return [str(exc)]
        return []

    def insert_cas_failures(self) -> int:
        return 0  # inserts take the lock; there is no CAS to fail

    # -- internals (lock held) -------------------------------------------------

    def _remove_at(self, pos: int) -> int:
        heap = self._heap
        removed = heap[pos]
        last = heap.pop()
        del self._pos[removed]
        if pos < len(heap):
            heap[pos] = last
            self._pos[last] = pos
            self._sift_down(pos)
            self._sift_up(pos)
        return removed

    def _sift_up(self, pos: int) -> None:
        heap = self._heap
        while pos > 0:
            parent = (pos - 1) // 2
            if self._before(self._key(heap[pos]), self._key(heap[parent])):
                self._swap(pos, parent)
                pos = parent
            else:
                break

    def _sift_down(self, pos: int) -> None:
        heap = self._heap
        n = len(heap)
        while True:
            left = 2 * pos + 1
            right = left + 1
            best = pos
            if left < n and self._before(self._key(heap[left]), self._key(heap[best])):
                best = left
            if right < n and self._before(self._key(heap[right]), self._key(heap[best])):
                best = right
            if best == pos:
                return
            self._swap(pos, best)
            pos = best

    def _swap(self, a: int, b: int) -> None:
        heap = self._heap
        heap[a], heap[b] = heap[b], heap[a]
        self._pos[heap[a]] = a
        self._pos[heap[b]] = b

    def check_heap(self) -> None:
        """Debug sweep: order relation holds at every edge, index consistent."""
        with self._lock:
            for pos in range(1, len(self._heap)):
                parent = (pos - 1) // 2
                if self._before(self._key(self._heap[pos]), self._key(self._heap[parent])):
                    raise HeapOrderError(
                        f"slot {pos} precedes its parent under this relation")
            for index, pos in self._pos.items():
                if self._heap[pos] != index:
                    raise HeapOrderError(f"position index stale for item {index}")

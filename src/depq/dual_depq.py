"""Generic double-ended queue built from two single-ended priority queues.

One queue is ordered ascending (serving extract-min), the other descending
(serving extract-max); every insert goes into both, ascending side first.
Extractions loop: pop the first item from their own queue and try to claim
it via its reservation flag.  A pop whose claim fails means the other end
already returned that item, so the loop simply pops again; emptiness of the
own queue means the whole structure is empty.

This loop is the only place in the package that claims an item.  Both
builds run it: ``list-depq`` over two :class:`~depq.ordered_list.ListPq`,
``dual-heap`` over two locked heaps.

This composition is *dual-consumer*: at most one thread may run extract_min
and at most one extract_max at a time (inserters are unrestricted).
:class:`MultiConsumerDepq` lifts it to arbitrary extractor counts with one
serializer per end (:mod:`depq.combining`: a lock or a combiner); inserts
bypass it.

When both underlying queues support arbitrary delete, a successful claim
also deletes its item from the opposite queue.  That is never needed for
correctness (the claimed item would be skipped anyway), but it keeps each
queue's length bounded by its live contents instead of growing with every
claim.  The delete may find the item already gone, popped by the other
end's consumer, whose claim then failed; it then returns False.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

from .atomics import checkpoint, sited
# COMBINING and TWO_LOCKS are re-exported: callers name the modes from here.
from .combining import COMBINING, TWO_LOCKS, make_serializer  # noqa: F401
from .items import (MAX, MIN, POISONED, UID_BITS, Arena, PriorityQueue,
                    is_reserved, reclaimed_access, try_reserve)


#: A build's ``counters``, the name the benchmark reads its counts by:
#: ``counters.snapshot()`` is ``stats()``.
_COUNTERS = property(lambda self: SimpleNamespace(snapshot=self.stats))


class DualDepq:
    """Dual-consumer double-ended priority queue over two PriorityQueues."""

    def __init__(self, arena: Arena, min_pq: PriorityQueue, max_pq: PriorityQueue):
        self.arena = arena
        self._slots = arena.slots
        self._rmw_lock = arena.rmw_lock
        self.min_pq = min_pq
        self.max_pq = max_pq
        self._delete_claimed = min_pq.has_delete and max_pq.has_delete
        # Per-end counts, each bumped only by its end's consumer.
        self.reserve_failures = [0, 0]
        self.extract_successes = [0, 0]

    counters = _COUNTERS

    @sited
    def insert(self, user_key: int) -> None:
        index = self.arena.new_item(user_key)
        self.min_pq.pq_insert(index)
        checkpoint("between-pq-inserts")
        self.max_pq.pq_insert(index)

    def extract_min(self) -> int | None:
        return self._extract(MIN)

    def extract_max(self) -> int | None:
        return self._extract(MAX)

    def _extract(self, end: int) -> int | None:
        # An extraction's first action is always a pop on its own queue, so
        # every extraction that runs at all touches shared state; there is
        # no "never started" case to reason about.
        own = self.min_pq if end == MIN else self.max_pq
        other = self.max_pq if end == MIN else self.min_pq
        # Slot and key are read inline, as in the lists' hot loops.
        slots, lock = self._slots, self._rmw_lock
        index = None
        while True:
            prior, index = index, own.pq_extract_first()
            if index is None:
                return None
            if index == prior:   # a claimed item was not deleted from its queue
                raise AssertionError(f"{('min', 'max')[end]} end popped index {index} twice")
            item = slots[index]
            if item is POISONED:
                raise reclaimed_access(index)
            if try_reserve(item, lock):
                if self._delete_claimed:
                    other.pq_delete(index)
                self.extract_successes[end] += 1
                return item.key >> UID_BITS
            self.reserve_failures[end] += 1

    # The surface every build shares, answered through the two queues'
    # protocol; quiescent use only.

    def remaining_keys(self) -> list[int]:
        """User keys still extractable: the ascending queue's unclaimed items."""
        items = map(self.arena.item, self.min_pq.contents())
        return [item.user_key for item in items if not is_reserved(item)]

    def problems(self) -> list[str]:
        return self.min_pq.problems() + self.max_pq.problems()

    def stats(self) -> dict:
        """Every count the build keeps.  No serializer runs batches here, no
        reclaimer retires nodes and no insert of its own can fail a CAS."""
        return {"reserve_failures": list(self.reserve_failures),
                "extract_successes": list(self.extract_successes),
                "insert_cas_failures": 0, "retired": 0, "batch_sizes": {}}

    def close(self) -> None:
        pass


class MultiConsumerDepq:
    """Multi-consumer wrapper: each end's extractions go through that end's
    serializer (see :func:`~depq.combining.make_serializer`)."""

    def __init__(self, inner: DualDepq, mode: str, batch_cap: int = 64):
        self.inner = inner
        # Each extraction is looked up when it runs, so a wrapped one (a
        # tracer's, say) is the one that runs.
        self._ends = (make_serializer(mode, lambda _req: inner.extract_min(), batch_cap),
                      make_serializer(mode, lambda _req: inner.extract_max(), batch_cap))

    counters = _COUNTERS

    def insert(self, user_key: int) -> None:
        self.inner.insert(user_key)

    def extract_min(self) -> int | None:
        return self._ends[MIN].announce(None)

    def extract_max(self) -> int | None:
        return self._ends[MAX].announce(None)

    def combiner_stats(self, end: int):
        return self._ends[end].stats

    def remaining_keys(self) -> list[int]:
        return self.inner.remaining_keys()

    def problems(self) -> list[str]:
        return self.inner.problems()

    def stats(self) -> dict:
        """Also both ends' batch-size histograms, merged."""
        sizes = sum((Counter(end.stats.batch_sizes) for end in self._ends), Counter())
        return {**self.inner.stats(), "batch_sizes": dict(sorted(sizes.items()))}

    def close(self) -> None:
        self.inner.close()


def make_multi_consumer(inner: DualDepq, mode: str, batch_cap: int = 64):
    return MultiConsumerDepq(inner, mode, batch_cap)

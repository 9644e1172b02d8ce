"""The multi-consumer list-based double-ended priority queue.

Composition of the package's pieces: one :class:`~depq.ordered_list.ListPair`
holding every element on both sorted lists, one serializer per end
(:mod:`depq.combining`: a per-end lock by default, or a combiner) running
extractions one at a time, and a reclaimer retiring nodes once both lists
have physically dropped them.

An extraction announces itself to its end's serializer, which runs the
list extraction (logical delete + claim) for each request of its batch and
then physically deletes the whole logically deleted prefix once, feeding
the unlinked nodes to the reclaimer.  Under the lock every batch is one
extraction.  Insertions never touch the serializers: they link the new
node into the ascending list first, then the descending one, concurrently
with everything else.
"""

from __future__ import annotations

from .atomics import checkpoint
from .combining import DEFAULT_MODE, batch_sizes, make_serializer
from .items import ENDS, MAX, MIN, POISONED, Arena, reclaimed_access
from .ordered_list import AuditReport, ListPair
from .reclaim import DEFERRED, Reclaimer


class ListDepq:
    def __init__(self, mode: str = DEFAULT_MODE, batch_cap: int = 64,
                 reclaim_mode: str = DEFERRED):
        self.arena = Arena()
        self.lists = ListPair(self.arena)
        self.counters = self.lists.counters
        self.reclaim = Reclaimer(self.arena, mode=reclaim_mode)
        # Each extraction runs inside its caller's epoch; under the lock the
        # caller enters it only once it holds the lock.
        self._ends = tuple(
            make_serializer(mode, lambda _req, end=end: self._extract_one(end),
                            finalize=lambda end=end: self._finish_batch(end),
                            batch_cap=batch_cap, guard=self.reclaim)
            for end in ENDS)

    def insert(self, user_key: int) -> None:
        self.reclaim.enter()
        try:
            index = self.arena.new_item(user_key)
            self.lists.insert(index, MIN)
            checkpoint("between-list-inserts")
            self.lists.insert(index, MAX)
        finally:
            self.reclaim.exit()

    def extract_min(self) -> int | None:
        return self._extract(MIN)

    def extract_max(self) -> int | None:
        return self._extract(MAX)

    def _extract(self, end: int) -> int | None:
        return self._ends[end].announce(None)

    # Runs on the thread serving one end's batch.
    def _extract_one(self, end: int) -> int | None:
        index = self.lists.extract_first(end, reserve=True)
        if index is None:
            return None
        item = self.arena.slots[index]
        if item is POISONED:
            raise reclaimed_access(index)
        return item.key.user_key

    # Once per batch, after its last extraction.
    def _finish_batch(self, end: int) -> None:
        for index in self.lists.sweep_head(end):
            self.reclaim.on_unlink(index)
        self.reclaim.try_advance()

    # -- inspection ------------------------------------------------------------

    def combiner_stats(self, end: int):
        return self._ends[end].stats

    def audit(self, end: int, mid_extract_ok: bool = False) -> AuditReport:
        return self.lists.audit(end, mid_extract_ok=mid_extract_ok)

    # The surface every build shares; quiescent use only.

    def remaining_keys(self) -> list[int]:
        """User keys still extractable, read off the ascending list's suffix."""
        return [k.user_key for k in self.lists.suffix_keys(MIN)]

    def problems(self) -> list[str]:
        return [report.describe() for report in map(self.audit, ENDS)
                if not report.ok]

    def stats(self) -> dict:
        counters = self.counters.snapshot()
        return {"reserve_failures": counters["reserve_failures"],
                "insert_cas_failures": counters["insert_cas_failures"],
                "retired": self.reclaim.snapshot()["retired"],
                "batch_sizes": batch_sizes(self._ends)}

    def close(self) -> None:
        self.reclaim.close()

"""The multi-consumer list-based double-ended priority queue.

Composition of the package's pieces: one :class:`~depq.ordered_list.ListPair`
holding every element on both sorted lists, one combining instance per end
serializing extractions, and a reclaimer retiring nodes once both lists
have physically dropped them.

An extraction announces itself to its end's combiner; the combiner runs the
list extraction (logical delete + claim) for each request of its batch and
then physically deletes the whole logically deleted prefix once, feeding
the unlinked nodes to the reclaimer.  Insertions never touch the combiners:
they link the new node into the ascending list first, then the descending
one, concurrently with everything else.
"""

from __future__ import annotations

from .atomics import checkpoint
from .combining import Combiner
from .items import MAX, MIN, POISONED, Arena, reclaimed_access
from .ordered_list import AuditReport, ListPair
from .reclaim import DEFERRED, Reclaimer


class ListDepq:
    def __init__(self, batch_cap: int = 64, reclaim_mode: str = DEFERRED):
        self.arena = Arena()
        self.lists = ListPair(self.arena)
        self.counters = self.lists.counters
        self.reclaim = Reclaimer(self.arena, mode=reclaim_mode)
        self._combiners = (
            Combiner(lambda _req: self._extract_one(MIN),
                     finalize=lambda: self._finish_batch(MIN),
                     batch_cap=batch_cap),
            Combiner(lambda _req: self._extract_one(MAX),
                     finalize=lambda: self._finish_batch(MAX),
                     batch_cap=batch_cap),
        )

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
        self.reclaim.enter()
        try:
            return self._combiners[end].announce(None)
        finally:
            self.reclaim.exit()

    # Runs on the combiner thread of one end.
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
        return self._combiners[end].stats

    def audit(self, end: int, mid_extract_ok: bool = False) -> AuditReport:
        return self.lists.audit(end, mid_extract_ok=mid_extract_ok)

    def remaining_keys(self) -> list[int]:
        """User keys still extractable, read off the ascending list's suffix.

        Quiescent use only.
        """
        return [k.user_key for k in self.lists.suffix_keys(MIN)]

    def close(self) -> None:
        self.reclaim.close()

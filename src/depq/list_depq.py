"""The multi-consumer list-based double-ended priority queue.

The paper's generic construction applied to its list-based priority queue:
one :class:`~depq.ordered_list.ListPair` holds every element on both sorted
lists, each end of it is a single-ended :class:`~depq.ordered_list.ListPq`,
and :class:`~depq.dual_depq.DualDepq` adds the other end's extraction over
the two, with one serializer per end (:mod:`depq.combining`: a per-end lock
by default, or a combiner) in front of it.

An extraction pops its own end's first live node and claims it; a node the
other end has already claimed is skipped.  The pop physically deletes the
logically deleted prefix behind it and hands the unlinked nodes to a
reclaimer, which retires a node once both lists have dropped it.  Each
extraction runs inside the reclaimer's epoch, and each batch ends with an
attempt to advance the epoch.  Insertions never touch the serializers: one
pair insert links the new node into the ascending list first, then the
descending one, concurrently with everything else.  It too runs inside the
epoch, because the list starts its index search picks may be deleted and
retired before it links the node.
"""

from __future__ import annotations

from .combining import DEFAULT_MODE
from .dual_depq import CountReader, DualDepq, MultiConsumerDepq
from .items import MAX, MIN, Arena
from .ordered_list import AuditReport, ListPair, ListPq
from .reclaim import DEFERRED, Reclaimer


class ListDepq(MultiConsumerDepq):
    def __init__(self, mode: str = DEFAULT_MODE, batch_cap: int = 64,
                 reclaim_mode: str = DEFERRED):
        self.arena = arena = Arena()
        self.lists = lists = ListPair(arena)
        self.reclaim = reclaim = Reclaimer(arena, mode=reclaim_mode)
        dual = DualDepq(arena, ListPq(lists, MIN, reclaim), ListPq(lists, MAX, reclaim))
        # Under the lock a caller enters the epoch only once it holds the
        # lock.  ``try_advance`` is looked up per batch, so a wrapped one
        # (a tracer's, say) is the one that runs.
        super().__init__(dual, mode, batch_cap, guard=reclaim,
                         finalize=lambda: reclaim.try_advance())

    def insert(self, user_key: int) -> None:
        self.reclaim.enter()
        try:
            self.lists.insert(self.arena.new_item(user_key))
        finally:
            self.reclaim.exit()

    @property
    def counters(self) -> CountReader:
        """The claim loop's per-end counts, with the pair's per-end marks and
        its failed insert CASes; built when read."""
        dual, lists = self.inner, self.lists
        return CountReader((dual, "reserve_failures"), (dual, "extract_successes"),
                           (lists, "marks"), (lists, "insert_cas_failures"))

    def audit(self, end: int, mid_extract_ok: bool = False) -> AuditReport:
        return self.lists.audit(end, mid_extract_ok=mid_extract_ok)

    def stats(self) -> dict:
        return {**super().stats(), "insert_cas_failures": self.lists.insert_cas_failures,
                "retired": self.reclaim.snapshot()["retired"]}

    def close(self) -> None:
        super().close()
        self.reclaim.close()


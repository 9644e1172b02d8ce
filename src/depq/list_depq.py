"""The multi-consumer list-based double-ended priority queue.

The paper's generic construction applied to its list-based priority queue:
one :class:`~depq.ordered_list.ListPair` holds every element on both sorted
lists, each end of it is a single-ended :class:`~depq.ordered_list.ListPq`,
and :class:`~depq.dual_depq.DualDepq` adds the other end's extraction over
the two, with one serializer per end (:mod:`depq.combining`: a per-end lock
by default, or a combiner) in front of it.

An extraction pops its own end's first live node and claims it; a node the
other end has already claimed is skipped.  The pop's sweep then unlinks
the previous head (the node the end popped before, or the sentinel) and
hands it to a reclaimer, which retires a node once both lists have
dropped it, and the pop tries to advance the reclaimer's epoch.
Extractions run outside the epoch: an end's consumer reads only nodes
still linked on its own list (the node it pops stays the head until its
next pop), and only its own sweep unlinks them there, so none of them can
be retired under it.
Insertions never touch the serializers: one pair insert links the new node
into the ascending list first, then the descending one, concurrently with
everything else.  It runs inside the epoch, because the list starts its
index search picks may be deleted and retired before it links the node.
"""

from __future__ import annotations

from .combining import DEFAULT_MODE
from .dual_depq import DualDepq, MultiConsumerDepq
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
        super().__init__(dual, mode, batch_cap)

    def insert(self, user_key: int) -> None:
        self.reclaim.enter()
        try:
            self.lists.insert(self.arena.new_item(user_key))
        finally:
            self.reclaim.exit()

    def audit(self, end: int) -> AuditReport:
        return self.lists.audit(end)

    def stats(self) -> dict:
        """Also each end's ``marks``, its pops that returned a node: every
        one of them either claimed its item or failed to."""
        stats = super().stats()
        stats["marks"] = [won + lost for won, lost in
                          zip(stats["extract_successes"], stats["reserve_failures"])]
        stats["insert_cas_failures"] = self.lists.insert_cas_failures
        stats["retired"] = self.reclaim.retired
        return stats

    def close(self) -> None:
        super().close()
        self.reclaim.close()


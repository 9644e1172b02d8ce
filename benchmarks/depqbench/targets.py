"""The two builds the queue workloads drive, behind one small interface.

A target owns one freshly constructed queue.  A round's traffic goes
through ``depq`` (``insert`` / ``extract_min`` / ``extract_max``), which a
test may wrap; the target keeps its own reference to the queue and answers
the questions the correctness gate and the traced run ask at quiescence:
which keys are still stored, whether the structure passes its audit, and
what the build's own counters and inspection calls say.
"""

from __future__ import annotations

from depq.dual_depq import COMBINING, DualDepq, make_multi_consumer
from depq.items import ENDS, MAX, MIN, Arena, is_reserved
from depq.list_depq import ListDepq
from depq.oracle import HeapOrderError, LockedHeapPq
from depq.reclaim import EPOCH


def _batch_stats(stats_of) -> dict:
    snaps = [stats_of(end).snapshot() for end in ENDS]
    return {"applied": sum(s["applied"] for s in snaps),
            "batches": sum(s["batches"] for s in snaps)}


class ListTarget:
    """``list-depq`` with epoch reclamation, as a long-lived queue needs."""

    def __init__(self) -> None:
        self.queue = self.depq = ListDepq(reclaim_mode=EPOCH)

    def remaining(self) -> list[int]:
        return self.queue.remaining_keys()

    def problems(self) -> list[str]:
        return [report.describe() for report in map(self.queue.audit, ENDS)
                if not report.ok]

    def layer_counts(self) -> dict:
        depq = self.queue
        lists = depq.lists
        counters = depq.counters.snapshot()
        walked = zombies = 0
        for end in ENDS:
            walked += len(lists.walk(end))
            live = lists.suffix_keys(end, include_reserved=True)
            zombies += len(live) - len(lists.suffix_keys(end))
        reclaim = depq.reclaim.snapshot()
        return {
            "list_extracts": sum(counters["extract_successes"]),
            "list_marks": sum(counters["marks"]),
            "insert_cas_failures": counters["insert_cas_failures"],
            "list_nodes": walked, "list_zombies": zombies, "lists": len(ENDS),
            "retired": reclaim["retired"], "freed": reclaim["freed"],
            "pending": reclaim["pending"],
            **_batch_stats(depq.combiner_stats),
        }

    def close(self) -> None:
        self.queue.close()


class HeapTarget:
    """``dual-heap``: two locked heaps behind the combining wrapper."""

    def __init__(self) -> None:
        arena = Arena()
        self.arena = arena
        self.heaps = (LockedHeapPq(arena), LockedHeapPq(arena, descending=True))
        self.dual = DualDepq(arena, *self.heaps)
        self.queue = self.depq = make_multi_consumer(self.dual, COMBINING)

    def _live(self, end: int) -> list[int]:
        items = (self.arena.item(i) for i in self.heaps[end].contents())
        return sorted(item.user_key for item in items if not is_reserved(item))

    def remaining(self) -> list[int]:
        return self._live(MIN)

    def problems(self) -> list[str]:
        out = []
        for heap in self.heaps:
            try:
                heap.check_heap()
            except HeapOrderError as exc:
                out.append(str(exc))
        if self._live(MIN) != self._live(MAX):
            out.append("the two heaps disagree on the unclaimed keys")
        return out

    def layer_counts(self) -> dict:
        counters = self.dual.counters.snapshot()
        entries = stale = 0
        for heap in self.heaps:
            contents = heap.contents()
            entries += len(contents)
            stale += sum(1 for i in contents if is_reserved(self.arena.item(i)))
        return {
            "dual_claims": sum(counters["extract_successes"]),
            "dual_claim_failures": sum(counters["reserve_failures"]),
            "heap_entries": entries, "heap_stale": stale, "heaps": len(self.heaps),
            **_batch_stats(self.queue.combiner_stats),
        }

    def close(self) -> None:
        pass

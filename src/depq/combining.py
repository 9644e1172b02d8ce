"""Per-end serializers: one end's extractions run one at a time.

``make_serializer`` builds one of two kinds, chosen by mode.  Both take a
per-request function ``apply`` and offer ``announce(request)``, which
returns ``apply(request)``.  Both keep the same :class:`BatchStats` in
``stats``: a histogram of batch sizes and a count of gauge violations,
plain ints updated under a lock the serializer holds anyway, so they are
exact.

``two-locks`` (:class:`EndLock`, the default): each caller takes the end's
lock, runs its own request and releases.  Every call is a batch of one.

``combining`` (:class:`Combiner`): the combining scheme of the paper, after
CC-Synch.  Threads announce a request by swapping a fresh record into the
shared tail, receiving the previous tail record as their own announcement
cell.  They publish the request into that cell, link the fresh record
behind it, and spin locally on the cell's wait flag.  The thread whose wait
flag clears with the completed flag still unset becomes the combiner: it
walks the record chain in FIFO order applying up to ``batch_cap`` requests,
and hands the combiner role to the next record by clearing its wait flag.
Combining pays off only when announcers run in parallel; under CPython's
GIL its batches are almost always 1, which is why the lock is the default.

Consequences relied on elsewhere in this package, in both modes: at most
one thread runs an end's requests at a time, each request is served
exactly once, and a request that raises fails only its own caller.  What
a request needs around it is part of ``apply``, and runs on whichever
thread serves it.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from . import atomics

TWO_LOCKS = "two-locks"
COMBINING = "combining"
MODES = (TWO_LOCKS, COMBINING)
#: The mode of ``ListDepq``, of ``depq bench|stress`` and of the workload
#: config when none is given.
DEFAULT_MODE = TWO_LOCKS

_SPIN_BEFORE_YIELD = 64


class BatchStats:
    """One serializer's batches: how many of each size, and how many times a
    second combiner appeared (``gauge_violations``; always 0 under a lock).
    The serializer updates them under its own lock."""

    __slots__ = ("batch_sizes", "gauge_violations")

    def __init__(self) -> None:
        self.batch_sizes: dict[int, int] = {}
        self.gauge_violations = 0

    def record(self, size: int) -> None:
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1

    def snapshot(self) -> dict[str, Any]:
        """Also ``applied`` and ``batches``, the histogram's two totals."""
        sizes = dict(sorted(self.batch_sizes.items()))
        return {"applied": sum(size * n for size, n in sizes.items()),
                "batches": sum(sizes.values()),
                "gauge_violations": self.gauge_violations, "batch_sizes": sizes}


class CombinerRecord:
    __slots__ = ("request", "result", "error", "wait", "completed", "next_rec")

    def __init__(self) -> None:
        self.request: Any = None
        self.result: Any = None
        self.error: Exception | None = None
        self.wait = 0
        self.completed = 0
        self.next_rec: CombinerRecord | None = None


class Combiner:
    """One combining instance serving one hotspot (one end of a queue).

    Each request is applied by the combiner of its batch, which may be
    another announcer's thread.
    """

    def __init__(self, apply: Callable[[Any], Any], batch_cap: int = 64):
        if batch_cap < 1:
            raise ValueError("batch_cap must be at least 1")
        self.batch_cap = batch_cap
        self._apply = apply
        # The tail's swap runs under this lock; ``stats`` is updated under it too.
        self._lock = threading.Lock()
        self._tail = CombinerRecord()
        self._spare = threading.local()
        # Held by the active combiner: the at-most-one-combiner check.
        self._combining = threading.Lock()
        self.stats = BatchStats()

    @atomics.sited
    def announce(self, request: Any) -> Any:
        """Submit a request; blocks until some combiner has applied it."""
        fresh = getattr(self._spare, "rec", None) or CombinerRecord()
        fresh.next_rec = None
        fresh.wait = 1
        fresh.completed = 0
        fresh.error = None
        atomics.checkpoint("cc-swap")
        lock = self._lock
        lock.acquire()
        try:
            cell = self._tail
            self._tail = fresh
        finally:
            lock.release()
        cell.request = request
        atomics.checkpoint("cc-link")
        cell.next_rec = fresh
        # The received record is recycled as this thread's next fresh one.
        self._spare.rec = cell

        spins = 0
        while True:
            atomics.checkpoint("cc-spin", lambda: cell.wait)
            if not cell.wait:
                break
            spins += 1
            if spins % _SPIN_BEFORE_YIELD == 0:
                time.sleep(0)
        if not cell.completed:
            self._combine(cell)
        if cell.error is not None:
            raise cell.error
        return cell.result

    @atomics.sited
    def _combine(self, cell: CombinerRecord) -> None:
        """Serve a batch starting at this thread's own record, then hand off.

        A request that raises has its exception stored in its record, for
        its own caller to raise; the batch goes on.  The role is handed on
        even when the pass is cut short, so no later announce waits forever.
        """
        # Never blocks: a held lock means a second combiner, which is counted.
        # Two combiners may count at once, hence the lock.
        owner = self._combining.acquire(False)
        if not owner:
            with self._lock:
                self.stats.gauge_violations += 1
        rec = cell
        served = 0
        try:
            while served < self.batch_cap:
                atomics.checkpoint("cc-read-next")
                nxt = rec.next_rec
                if nxt is None:
                    break
                try:
                    rec.result = self._apply(rec.request)
                except Exception as exc:
                    rec.error = exc
                served += 1
                rec.completed = 1
                rec.wait = 0
                rec = nxt
        finally:
            lock = self._lock
            lock.acquire()
            try:
                self.stats.record(served)
            finally:
                lock.release()
            if owner:
                self._combining.release()
            # Handoff: whoever owns (or will receive) this record combines next.
            rec.wait = 0


class EndLock:
    """Lock mode: each caller runs its own request under the end's lock.

    A plain ``threading.Lock``, which a caller waits for at ``lock-acquire``,
    a checkpoint that names the lock as what keeps it waiting (see
    :func:`~depq.atomics.checkpoint`).
    """

    def __init__(self, apply: Callable[[Any], Any]):
        self._apply = apply
        self._lock = threading.Lock()
        self.stats = BatchStats()

    @atomics.sited
    def announce(self, request: Any) -> Any:
        """Apply ``request``.  An error from ``apply`` reaches the caller
        only once the lock is free."""
        atomics.checkpoint("lock-acquire", self._lock.locked)
        self._lock.acquire()
        try:
            return self._apply(request)
        finally:
            self.stats.record(1)
            self._lock.release()


def make_serializer(mode: str, apply: Callable[[Any], Any], batch_cap: int = 64):
    """One end's serializer in ``mode``; ``batch_cap`` applies to combining."""
    if batch_cap < 1:
        raise ValueError("batch_cap must be at least 1")
    if mode == TWO_LOCKS:
        return EndLock(apply)
    if mode == COMBINING:
        return Combiner(apply, batch_cap)
    raise ValueError(f"unknown serializer mode {mode!r}")

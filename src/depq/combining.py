"""Per-end serializers: one end's extractions run one at a time.

``make_serializer`` builds one of two kinds, chosen by mode.  Both take a
per-request function ``apply`` and offer ``announce(request)``, which
returns ``apply(request)``.  Both keep the same :class:`BatchStats` in
``stats``: a histogram of batch sizes, plain ints updated under the end's
lock, so they are exact.

``two-locks`` (:class:`EndLock`, the default): each caller takes the end's
lock, runs its own request and releases.  Every call is a batch of one.

``combining`` (:class:`Combiner`): the paper's lock-based combining, a
combining lock after Oyama, Taura and Yonezawa (PDSEC 1999) and flat
combining (Hendler et al., SPAA 2010).  A caller publishes a record of its
request on the end's queue, then takes the end's lock.  A waiter sleeps in
the lock's blocking ``acquire``, which releases the GIL, so it costs no
CPU while it waits.  The holder finds its record either served by an
earlier holder, and releases at once, or still queued: then it serves the
queue in FIFO order through its own record and on while records remain,
until the batch holds ``batch_cap`` requests.  So a batch exceeds
``batch_cap`` only by the records queued ahead of its holder's own.
Uncontended, an ``announce`` costs one lock and a queue append and pop.

Consequences relied on elsewhere in this package, in both modes: at most
one thread runs an end's requests at a time, each request is served
exactly once, and a request that raises fails only its own caller.  What
a request needs around it is part of ``apply``, and runs on whichever
thread serves it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

from . import atomics

TWO_LOCKS = "two-locks"
COMBINING = "combining"
MODES = (TWO_LOCKS, COMBINING)
#: The mode of ``ListDepq``, of ``depq bench|stress`` and of the workload
#: config when none is given.
DEFAULT_MODE = TWO_LOCKS


class BatchStats:
    """One serializer's batches: how many of each size.  The serializer
    updates them under its own lock."""

    __slots__ = ("batch_sizes",)

    def __init__(self) -> None:
        self.batch_sizes: dict[int, int] = {}

    def record(self, size: int) -> None:
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1

    def snapshot(self) -> dict[str, Any]:
        """Also ``applied`` and ``batches``, the histogram's two totals."""
        sizes = dict(sorted(self.batch_sizes.items()))
        return {"applied": sum(size * n for size, n in sizes.items()),
                "batches": sum(sizes.values()), "batch_sizes": sizes}


class Combiner:
    """Combining mode: whoever holds the end's lock serves every queued
    request, up to ``batch_cap`` past its own.

    Each request is applied by the holder of its batch, which may be
    another announcer's thread.
    """

    def __init__(self, apply: Callable[[Any], Any], batch_cap: int = 64):
        if batch_cap < 1:
            raise ValueError("batch_cap must be at least 1")
        self.batch_cap = batch_cap
        self._apply = apply
        self._lock = threading.Lock()
        # Published records, oldest first.  Appends run outside the lock and
        # pops under it; a deque's appends and pops are thread-safe.
        self._queue: deque[list] = deque()
        self.stats = BatchStats()

    @atomics.sited
    def announce(self, request: Any) -> Any:
        """Apply ``request``, on this thread or on another announcer's, and
        return its result or raise its error once the lock is free.

        Any exception from ``apply``, ``KeyboardInterrupt`` included, is its
        request's outcome: it is stored and raised to that request's caller
        alone, so a holder never leaves a popped record unserved.
        """
        # [request, outcome, raised]: ``raised`` is None until served.
        record = [request, None, None]
        atomics.checkpoint("cc-publish")
        self._queue.append(record)
        lock = self._lock
        atomics.checkpoint("cc-wait", lock.locked)
        lock.acquire()
        try:
            if record[2] is None:
                queue = self._queue
                apply = self._apply
                served = 0
                while True:
                    atomics.checkpoint("cc-serve")
                    rec = queue.popleft()
                    try:
                        rec[1] = apply(rec[0])
                        rec[2] = False
                    except BaseException as exc:
                        rec[1] = exc
                        rec[2] = True
                    served += 1
                    if record[2] is not None and (served >= self.batch_cap or not queue):
                        break
                self.stats.record(served)
        finally:
            lock.release()
        if record[2]:
            raise record[1]
        return record[1]


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

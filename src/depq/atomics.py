"""Single-word atomic cells and the instrumentation hook used by the
controlled scheduler.

A long-lived shared word, such as a list head, the reclaimer's epoch or a
combiner record's flag, lives in an :class:`AtomicCell`.  Plain loads and
stores of a Python attribute are already atomic under the GIL; the
read-modify-write operations (CAS, fetch-or, swap, ...) take a lock so they
are atomic on any Python implementation.  The words of an item, one made
per insert, are plain values instead, so an insert builds no cell: their
read-modify-writes take the arena's lock themselves and pause through
:func:`checkpoint` (see :class:`depq.items.Item`).

Each operation optionally names a *site* (a short label for the calling
code location).  When a controller is installed, the calling thread pauses
at that site before the operation executes.  This is what lets the test
scheduler freeze a thread "immediately before its CAS" or explore every
interleaving of two operations.  With no controller installed the check is
a single global load, so production use pays almost nothing.

A thread about to wait for another, for an end's lock or its combining
flag, pauses through :func:`wait` and names what keeps it waiting; it is
disabled until that clears.  A site goes only before an access that another
enabled thread can race.  One that commutes with every other enabled
thread's next access pauses nowhere: a read of a word only its own thread
writes (a consumer's read of its end's head), or a write read only by
threads disabled in a wait (an end lock's release, a combining record's
flags).  A pause there multiplies an exploration's runs, not its outcomes.

Counts need no type of their own: every count in this package is a plain
int, or a list of ints, that has one writer at a time (one end's consumer,
say) or is bumped under a lock its writer holds anyway.  Both serializer
modes keep their stats this way.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Protocol


class TraceController(Protocol):
    def pause(self, site: str) -> None: ...


_controller: TraceController | None = None


def set_controller(controller: TraceController | None) -> None:
    """Install (or clear) the global trace controller.  Only one may be
    active at a time; tests install one around each scenario."""
    global _controller
    _controller = controller


def checkpoint(site: str) -> None:
    """A pause point with no memory operation of its own: between two
    operations, or before an access to a plain word such as an item's."""
    c = _controller
    if c is not None:
        c.pause(site)


def wait(site: str, blocked: Callable[[], Any]) -> None:
    """Pause at ``site`` before a wait that cannot end while ``blocked()``
    is true.  A controller with a ``wait`` method is told ``blocked``, which
    must only read: the stepping scheduler calls it under its lock.  Callers
    test ``_controller`` first, so without one a wait builds no callable."""
    c = _controller
    if hasattr(c, "wait"):
        c.wait(site, blocked)
    elif c is not None:
        c.pause(site)


class AtomicCell:
    """One atomically updatable word holding an arbitrary value."""

    __slots__ = ("_value", "_lock")

    def __init__(self, value: Any = 0, lock: threading.Lock | None = None):
        self._value = value
        # RMW lock; may be shared between many cells of one structure.
        self._lock = lock if lock is not None else threading.Lock()

    def load(self, site: str | None = None) -> Any:
        if site is not None and _controller is not None:
            _controller.pause(site)
        return self._value

    def store(self, value: Any, site: str | None = None) -> None:
        if site is not None and _controller is not None:
            _controller.pause(site)
        self._value = value

    def swap(self, value: Any, site: str | None = None) -> Any:
        if site is not None and _controller is not None:
            _controller.pause(site)
        with self._lock:
            prior = self._value
            self._value = value
            return prior

    def compare_and_swap(self, expected: Any, new: Any, site: str | None = None) -> bool:
        """Set the cell to ``new`` iff it currently equals ``expected``."""
        if site is not None and _controller is not None:
            _controller.pause(site)
        with self._lock:
            if self._value == expected:
                self._value = new
                return True
            return False

    def fetch_or(self, bits: int, site: str | None = None) -> int:
        """OR ``bits`` into the cell; returns the prior value."""
        if site is not None and _controller is not None:
            _controller.pause(site)
        with self._lock:
            prior = self._value
            self._value = prior | bits
            return prior

    def fetch_add(self, delta: int, site: str | None = None) -> int:
        """Add ``delta`` to the cell; returns the prior value."""
        if site is not None and _controller is not None:
            _controller.pause(site)
        with self._lock:
            prior = self._value
            self._value = prior + delta
            return prior

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomicCell({self._value!r})"

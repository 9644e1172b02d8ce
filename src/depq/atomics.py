"""Pause points for the controlled scheduler, and the one rule every shared
word of this package follows.

A shared word (an item's link word or claim flag, a list head, the
reclaimer's epoch, a combiner record's flag, a count) is a plain value,
an attribute or an int in a list, whose load or store is atomic under the
GIL.  An access with a pause *site*, a short label for the calling code
location, is :func:`checkpoint` and then the plain read or write.  A
read-modify-write (a publish CAS, a mark, a claim, an epoch advance, a
combiner's tail swap, the increment of a count with more than one writer)
runs under a lock the structure already holds, such as the arena's
``rmw_lock``, so it is atomic on any Python implementation.

Each lock on a per-operation path is taken as ``lock.acquire()``, then
``try:`` around the critical section and ``finally: lock.release()``, not
as ``with lock:``.  Both release on any exit, but on CPython 3.11 ``with``
also pays for a context manager's enter and exit, most of the price of an
uncontended lock: in ``microbench/test_items.py::test_lock_idiom``, one
critical section around a list store took a median of 232-236 ns with
``with`` and 138-139 ns with ``acquire`` (three runs pinned to one CPU of a
2-core VM).  Code off those paths (quiescent inspection, the combiner's
rare gauge-violation count) keeps ``with``.  No pause site lies inside a
critical section, so a thread parked by the scheduler never holds a lock;
``ListPair.audit`` fails on an ``rmw_lock`` held at a quiescent point.

When a controller is installed, the calling thread pauses at each site
before the access, so a test scheduler can freeze a thread "immediately
before its CAS" or explore every interleaving of two operations.  With no
controller installed the check is a single global load.

A thread about to wait for another, for an end's lock or its combining
flag, pauses through :func:`wait` and names what keeps it waiting; it is
disabled until that clears.  A site goes only before an access that another
enabled thread can race.  One that commutes with every other enabled
thread's next access pauses nowhere: a read of a word only its own thread
writes (a consumer's read of its end's head), or a write read only by
threads disabled in a wait (an end lock's release, a combining record's
flags).  A pause there multiplies an exploration's runs, not its outcomes.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Protocol


class TraceController(Protocol):
    def pause(self, site: str, blocked: Callable[[], Any] | None = None) -> None: ...


_controller: TraceController | None = None


def set_controller(controller: TraceController | None) -> None:
    """Install (or clear) the global trace controller.  Only one may be
    active at a time; tests install one around each scenario."""
    global _controller
    _controller = controller


def checkpoint(site: str) -> None:
    """A pause point with no memory operation of its own: between two
    operations, or before an access to a shared word."""
    c = _controller
    if c is not None:
        c.pause(site)


def wait(site: str, blocked: Callable[[], Any]) -> None:
    """Pause at ``site`` before a wait that cannot end while ``blocked()``
    is true.  The controller's ``pause`` is told ``blocked``, which must
    only read: the stepping scheduler calls it under its lock.  Callers
    test ``_controller`` first, so without one a wait builds no callable."""
    c = _controller
    if c is not None:
        c.pause(site, blocked)


class AtomicCell:
    """One word with its own lock.  No module of this package uses it, as
    every shared word follows the rule above; the benchmark tracer
    (``benchmarks/depqbench/trace.py``) imports it and patches its four
    read-modify-writes.  Delete it once the tracer counts locks instead."""

    __slots__ = ("_value", "_lock")

    def __init__(self, value: Any = 0):
        self._value = value
        self._lock = threading.Lock()

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

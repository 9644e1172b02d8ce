"""Pause points for the controlled scheduler, and the one rule every shared
word of this package follows.

A shared word (an item's link word or claim flag, a list head, the
reclaimer's epoch, a combining record's outcome, a count) is a plain value,
an attribute or an int in a list, whose load or store is atomic under the
GIL.  An access with a pause *site*, a short label for the calling code
location, is :func:`checkpoint` and then the plain read or write.  A
read-modify-write (a publish CAS, a mark, a claim, an epoch advance, the
increment of a count with more than one writer) runs under a lock the
structure already holds, such as the arena's ``rmw_lock``, so it is atomic
on any Python implementation.  The one exception is the combiner's queue,
a ``collections.deque``, whose appends and pops the standard library
documents as thread-safe.

Each lock on a per-operation path is taken as ``lock.acquire()``, then
``try:`` around the critical section and ``finally: lock.release()``, not
as ``with lock:``.  Both release on any exit, but on CPython 3.11 ``with``
also pays for a context manager's enter and exit, most of the price of an
uncontended lock: in ``microbench/test_items.py::test_lock_idiom``, one
critical section around a list store took a median of 232-236 ns with
``with`` and 138-139 ns with ``acquire`` (three runs pinned to one CPU of a
2-core VM).  Code off those paths (quiescent inspection) keeps ``with``.
No pause site lies inside an ``rmw_lock`` critical section, so a thread
parked by the scheduler never holds that lock; ``ListPair.audit`` fails on
an ``rmw_lock`` held at a quiescent point.  An end's serializer lock is
held across the pauses of the requests it serves, and a thread waiting
for it is disabled (below).

When a controller is installed, the calling thread pauses at each site
before the access, so a test scheduler can freeze a thread "immediately
before its CAS" or explore every interleaving of two operations.

With no controller installed a site costs nothing, because it is not
there.  Each function that calls ``checkpoint`` is registered once, at
import, with the :func:`sited` decorator, which builds its *twin*: the same
source compiled again with its ``checkpoint(...)`` statements removed, on
the same lines and columns, so a traceback from the twin points at the
source.  The function runs its twin until :func:`set_controller` installs
a controller, which swaps every registered function's ``__code__`` to the
sited code; clearing the controller swaps the twins back.  So the source
stays the one instrumented text and no production path tests a switch.  A
wrapper of a registered function (a tracer's span, say) calls the same
function object, so it reaches the sited code under a controller too.  A
running frame keeps the code it started with, so installing a controller
while another thread runs the structure stays a caller bug.  In
``microbench/test_harness.py``, an insert + extract pair on an epoch-mode
``ListDepq`` at 1000 keys took a median of 7.3-7.5 us with the twins and
8.2-8.5 us under a pause that returns at once (three runs pinned to one
CPU of a 2-core VM).  Only this module reads ``_controller``.

A thread about to wait for another, for an end's lock in either serializer
mode, pauses at a checkpoint that also names what keeps it waiting, its
``blocked`` callable; it is disabled until that clears.  A site goes only
before an access that another enabled thread can race.  One that commutes
with every other enabled thread's next access pauses nowhere: a read of a
word only its own thread writes (a consumer's read of its end's head), or
a write read only by threads disabled in a wait (an end lock's release, a
combining record's outcome, stored under the lock).  A pause there
multiplies an exploration's runs, not its outcomes.
"""

from __future__ import annotations

import __future__
import ast
import threading
from types import CodeType, FunctionType
from typing import Any, Callable, Protocol


class TraceController(Protocol):
    def pause(self, site: str, blocked: Callable[[], Any] | None = None) -> None: ...


_controller: TraceController | None = None
#: Each registered function with its sited code and its twin.
_sited: list[tuple[FunctionType, CodeType, CodeType]] = []


def set_controller(controller: TraceController | None) -> None:
    """Install (or clear) the global trace controller.  Only one may be
    active at a time; tests install one around each scenario.  Every
    function registered with :func:`sited` runs its sited code while one
    is installed and its twin otherwise."""
    global _controller
    _controller = controller
    for fn, sited_code, twin in _sited:
        fn.__code__ = twin if controller is None else sited_code


def checkpoint(site: str, blocked: Callable[[], Any] | None = None) -> None:
    """A pause point with no memory operation of its own: between two
    operations, before an access to a shared word, or before a wait that
    cannot end while ``blocked()`` is true.  The controller's ``pause`` is
    told ``blocked``, which must only read: the stepping scheduler calls it
    under its lock.  A package function that calls it is registered with
    :func:`sited`, so with no controller installed it runs a twin without
    the call, and builds no ``blocked``.  An unregistered caller (a test's
    helper) pays for the call and one global load."""
    c = _controller
    if c is not None:
        c.pause(site, blocked)


def _strip_checkpoints(tree: ast.AST) -> None:
    """Drop each ``checkpoint(...)`` statement, whether the name is bare or
    an attribute (``atomics.checkpoint``).  A block whose only statement it
    was would fail to compile: keep a site beside the access it guards."""
    for node in ast.walk(tree):
        for name in ("body", "orelse", "finalbody"):
            stmts = getattr(node, name, None)
            if isinstance(stmts, list):
                setattr(node, name, [stmt for stmt in stmts if not _is_checkpoint(stmt)])


def _is_checkpoint(stmt: ast.AST) -> bool:
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return False
    func = stmt.value.func
    return (isinstance(func, ast.Name) and func.id == "checkpoint"
            or isinstance(func, ast.Attribute) and func.attr == "checkpoint")


def sited(fn: FunctionType) -> FunctionType:
    """Register ``fn``, a function that calls :func:`checkpoint`, and build
    its twin: its source compiled again with the ``checkpoint(...)``
    statements removed, on the same lines and columns.  Raises if the twin
    does not have ``fn``'s free variables.  Returns ``fn``, which runs the
    twin until a controller is installed."""
    code = fn.__code__
    # The block ends on the last line any of its instructions spans.  Read
    # past ``linecache``, which would keep every sited module's text.
    last = max(end for _, end, _, _ in code.co_positions() if end is not None)
    with open(code.co_filename, encoding="utf-8") as fh:
        source = "".join(fh.readlines()[code.co_firstlineno - 1:last])
    # Pad to the source's first line; an indented method is parsed as the
    # body of an ``if``, so its columns stay the source's too.
    if source[0].isspace():
        source = "\n" * (code.co_firstlineno - 2) + "if 1:\n" + source
    else:
        source = "\n" * (code.co_firstlineno - 1) + source
    tree = ast.parse(source, code.co_filename)
    _strip_checkpoints(tree)
    module = compile(tree, code.co_filename, "exec", dont_inherit=True,
                     flags=code.co_flags & __future__.annotations.compiler_flag)
    twin = next(c for c in module.co_consts if isinstance(c, CodeType))
    if twin.co_freevars != code.co_freevars:
        raise TypeError(f"{fn.__qualname__}: the twin's free variables "
                        f"{twin.co_freevars} differ from {code.co_freevars}")
    _sited.append((fn, code, twin))
    if _controller is None:
        fn.__code__ = twin
    return fn


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

"""Safe reclamation for nodes shared between two lists.

A node physically removed from one list may still be reachable from the
other, so removal alone never frees anything.  Each slot's ``state`` word
holds a 2-bit retire count (see :class:`~depq.items.Arena`): the first
removal's increment arms it, the second one observes it at one, proving
the node is unreachable from both lists and may be retired.

Retired nodes then wait out a grace period.  In ``deferred`` mode nothing
is freed until the structure is closed (the default for correctness tests,
so reclamation bugs cannot masquerade as algorithm bugs).  In ``epoch``
mode an operation that may hold a node another thread can retire brackets
itself with enter()/exit(), and the global epoch advances only when no
thread is still inside an older epoch.

A path needs the bracket if it reads a node on a list it does not sweep,
or if its pop is itself the unlink.  In ``list-depq`` only an insert does
so: it walks from the node of an index entry, which both ends may
unlink and retire meanwhile.  An extraction does not.  An end's consumer reads only
nodes still linked on its own list (the node it pops stays the head until
its next pop), and only its own sweep unlinks from that list, so no node
it reads has had its second unlink.  A delete that unlinks a claimed node
from the other end's list would need the bracket, and so would a heap pop,
which unlinks the node it returns.

Retired nodes wait in three limbo lists, one per epoch modulo 3 (Fraser's
scheme): a node retired in epoch ``e`` goes to ``limbo[e % 3]``.  The
advance from ``c`` to ``c + 1`` swaps out ``limbo[(c - 1) % 3]``, the nodes
retired two epochs before the new one, and frees them.  That is safe: the
advance from ``c - 1`` to ``c`` happened after those nodes were retired,
and this advance finds every active thread inside epoch ``c``, so each of
them entered after the retire, when the node was already unreachable from
both lists.  The compare-and-swap of the epoch and the swap of the list
happen under one hold of the arena's ``rmw_lock``, the lock under which a
second unlink also retires its node.  Done apart, an advancer delayed
between them could swap out a list that has since been refilled by
retires two epochs newer.  Freeing poisons the slots' keys and zeroes their
link words after the lock is released, so any late access trips an
assertion and a freed slot holds no object.
"""

from __future__ import annotations

import threading

from .atomics import checkpoint, sited
from .items import POISONED, UNLINK, UNLINKS, Arena, reclaimed_access

_QUIESCENT = -1

DEFERRED = "deferred"
EPOCH = "epoch"


class RetireProtocolError(AssertionError):
    """A node was reported unlinked more than twice."""


class Reclaimer:
    def __init__(self, arena: Arena, mode: str = DEFERRED):
        if mode not in (DEFERRED, EPOCH):
            raise ValueError(f"unknown reclaim mode {mode!r}")
        self.arena = arena
        # Read inline, as in ``ListPair``'s hot loops.
        self._keys, self._state = arena.keys, arena.state
        self.mode = mode
        # The arena's lock: retire counts, limbo lists, epoch and registry.
        self._lock = arena.rmw_lock
        self._epoch = 0                    # written only under ``_lock``
        self._slots: dict[int, list[int]] = {}
        self._active: tuple[list[int], ...] = ()   # ``_slots``' values
        self._local = threading.local()
        # Retired nodes by retire epoch modulo 3; ``deferred`` mode stays at
        # epoch 0, so it only fills ``_limbo[0]``.
        self._limbo: list[list[int]] = [[], [], []]
        self._closed = False
        # Bumped under ``_lock``, which is held there anyway.  First unlinks
        # are not counted: the slots' retire counts already hold that count.
        self.retired = 0
        self._freed = 0

    # -- retire-count protocol -------------------------------------------------

    @sited
    def on_unlink(self, index: int) -> bool:
        """Record one physical removal of a node from one list.

        Returns False on the first removal (the node may still be reachable
        from the other list), True on the second, at which point the node
        has been handed to the grace-period machinery.  A third call is a
        caller bug.
        """
        if self._keys[index] is POISONED:
            raise reclaimed_access(index)
        checkpoint("unlink-flag")
        state = self._state
        lock = self._lock
        lock.acquire()
        try:
            s = state[index]
            prior = s & UNLINKS
            if not prior:
                state[index] = s + UNLINK
                return False
            if prior == 1:    # a third call leaves the count at 2
                state[index] = s + UNLINK
                self._limbo[self._epoch % 3].append(index)
                self.retired += 1
                return True
        finally:
            lock.release()
        raise RetireProtocolError(f"item {index} unlinked {prior + 1} times")

    # -- epoch machinery ---------------------------------------------------------

    def _new_slot(self) -> list[int]:
        """Give this thread its epoch slot, a one-element list only it
        writes: cached in a thread-local for ``enter``/``exit``, registered
        in ``_slots`` for ``try_advance``."""
        slot = self._local.slot = [_QUIESCENT]
        with self._lock:
            self._slots[threading.get_ident()] = slot
            self._active = tuple(self._slots.values())
        return slot

    @sited
    def enter(self) -> None:
        """Mark this thread active in the current epoch."""
        if self.mode == EPOCH:
            slot = getattr(self._local, "slot", None) or self._new_slot()
            epoch = self._epoch
            checkpoint("epoch-enter")
            slot[0] = epoch

    @sited
    def exit(self) -> None:
        """Leave the epoch.

        If another thread advanced the epoch while this one was inside, this
        one may be what holds that thread's next advance back, and no pop
        may come to retry it (the extractors can be done).  So it tries to
        advance itself, twice, which frees everything retired so far.  Any
        other exit pays one comparison for this.  An exit with no ``enter``
        before it on this thread is a caller bug, and raises.
        """
        if self.mode == EPOCH:
            slot = self._local.slot
            entered = slot[0]
            checkpoint("epoch-exit")
            slot[0] = _QUIESCENT
            if entered != self._epoch and self.try_advance():
                self.try_advance()

    def try_advance(self) -> bool:
        """Advance the epoch if every active thread has observed it.

        On success, frees the nodes retired two epochs before the new one.
        With no retired node waiting to be freed there is nothing to
        advance for.
        """
        if self.mode != EPOCH or self.retired == self._freed:
            return False
        current = self._epoch
        for slot in self._active:
            seen = slot[0]
            if seen != _QUIESCENT and seen != current:
                return False
        # The epoch's compare-and-swap and the limbo swap are one step.
        lock = self._lock
        lock.acquire()
        try:
            if self._epoch != current:
                return False
            self._epoch = current + 1
            oldest = (current - 1) % 3
            victims = self._limbo[oldest]
            self._limbo[oldest] = []
            self._freed += len(victims)
        finally:
            lock.release()
        self.arena.free(victims)
        return True

    # -- teardown -----------------------------------------------------------------

    def close(self) -> None:
        """Free everything still pending; the structure is being dropped."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            victims = [idx for bucket in self._limbo for idx in bucket]
            self._limbo[:] = [], [], []
            self._freed += len(victims)
        self.arena.free(victims)

    def pending(self) -> int:
        with self._lock:
            return sum(map(len, self._limbo))

    def snapshot(self) -> dict:
        """``unlink_first``, ``retired`` and ``freed`` counts, plus ``mode``
        and the ``pending`` (retired, not yet freed) count.  Quiescent use
        only: ``unlink_first`` is the retired items plus the live ones whose
        retire count shows one unlink."""
        with self._lock:
            retired, freed = self.retired, self._freed
        unlinked_once = sum(1 for key, s in zip(self._keys, self._state)
                            if key is not POISONED and s & UNLINKS == UNLINK)
        return {"mode": self.mode, "unlink_first": retired + unlinked_once,
                "retired": retired, "freed": freed, "pending": self.pending()}

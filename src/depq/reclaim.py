"""Safe reclamation for nodes shared between two lists.

A node physically removed from one list may still be reachable from the
other, so removal alone never frees anything.  Each item carries a retire
flag: the first removal's test-and-set arms it, the second one observes it
set, proving the node is unreachable from both lists and may be retired.

Retired nodes then wait out a grace period.  In ``deferred`` mode nothing
is freed until the structure is closed (the default for correctness tests,
so reclamation bugs cannot masquerade as algorithm bugs).  In ``epoch``
mode every operation brackets itself with enter()/exit(); the global epoch
advances only when no thread is still inside an older epoch, and buckets
two epochs old are freed.  Freeing poisons the arena slot, so any late
access trips an assertion.
"""

from __future__ import annotations

import threading

from .atomics import AtomicCell
from .items import POISONED, Arena

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
        self.mode = mode
        self._lock = threading.Lock()
        self._epoch = AtomicCell(0, self._lock)
        self._slots: dict[int, AtomicCell] = {}
        self._local = threading.local()
        # Retired nodes by retire epoch; ``deferred`` mode stays at epoch 0.
        self._buckets: dict[int, list[int]] = {}
        self._closed = False
        # Bumped under ``_lock``, which is held there anyway.  First unlinks
        # are not counted: the items' retire flags already hold that count.
        self._retired = 0
        self._freed = 0

    # -- retire-bit protocol ---------------------------------------------------

    def on_unlink(self, index: int) -> bool:
        """Record one physical removal of a node from one list.

        Returns False on the first removal (the node may still be reachable
        from the other list), True on the second, at which point the node
        has been handed to the grace-period machinery.  A third call is a
        caller bug.
        """
        prior = self.arena.item(index).unlinked.fetch_add(1, site="unlink-flag")
        if prior == 0:
            return False
        if prior == 1:
            self._retire(index)
            return True
        raise RetireProtocolError(f"item {index} unlinked {prior + 1} times")

    def _retire(self, index: int) -> None:
        with self._lock:
            self._retired += 1
            self._buckets.setdefault(self._epoch.load(), []).append(index)

    # -- epoch machinery ---------------------------------------------------------

    def _new_slot(self) -> AtomicCell:
        """Give this thread its epoch slot: cached in a thread-local for
        ``enter``/``exit``, registered in ``_slots`` for ``try_advance``."""
        slot = self._local.slot = AtomicCell(_QUIESCENT, self._lock)
        with self._lock:
            self._slots[threading.get_ident()] = slot
        return slot

    def enter(self) -> None:
        """Mark this thread active in the current epoch."""
        if self.mode == EPOCH:
            slot = getattr(self._local, "slot", None) or self._new_slot()
            slot.store(self._epoch.load(), site="epoch-enter")

    def exit(self) -> None:
        """Leave the epoch.

        If another thread advanced the epoch while this one was inside, this
        one may be what holds that thread's next advance back, and no
        extraction may come to retry it (the extractors can be done).  So it
        tries to advance itself, twice, which frees everything retired so
        far.  Any other exit pays one comparison for this.
        """
        if self.mode == EPOCH:
            slot = getattr(self._local, "slot", None) or self._new_slot()
            entered = slot.load()
            slot.store(_QUIESCENT, site="epoch-exit")
            epoch = self._epoch.load()
            if (entered != epoch and getattr(self._local, "advanced_to", None) != epoch
                    and self.try_advance()):
                self.try_advance()

    def try_advance(self) -> bool:
        """Advance the epoch if every active thread has observed it.

        On success, frees the buckets that are now two epochs old.  With no
        retired node waiting to be freed there is nothing to advance for.
        """
        if self.mode != EPOCH or not self._buckets:
            return False
        current = self._epoch.load()
        for slot in list(self._slots.values()):
            seen = slot.load()
            if seen != _QUIESCENT and seen != current:
                return False
        if not self._epoch.compare_and_swap(current, current + 1):
            return False
        self._local.advanced_to = current + 1
        self._free_older_than(current + 1 - 2)
        return True

    def _free_older_than(self, threshold: int) -> None:
        # ``min`` over the epochs runs in one C call, so no retire can change
        # the dict under it.
        if min(self._buckets, default=threshold + 1) > threshold:
            return
        with self._lock:
            ready = [e for e in self._buckets if e <= threshold]
            victims = [idx for e in ready for idx in self._buckets.pop(e)]
            self._freed += len(victims)
        self._free(victims)

    # -- teardown -----------------------------------------------------------------

    def close(self) -> None:
        """Free everything still pending; the structure is being dropped."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            victims = [idx for bucket in self._buckets.values() for idx in bucket]
            self._buckets.clear()
            self._freed += len(victims)
        self._free(victims)

    def _free(self, victims: list[int]) -> None:
        for idx in victims:
            self.arena.poison(idx)

    def pending(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._buckets.values())

    def snapshot(self) -> dict:
        """``unlink_first``, ``retired`` and ``freed`` counts, plus ``mode``
        and the ``pending`` (retired, not yet freed) count.  Quiescent use
        only: ``unlink_first`` is the retired items plus the live ones whose
        retire flag shows one unlink."""
        with self._lock:
            retired, freed = self._retired, self._freed
        unlinked_once = sum(1 for item in self.arena.slots
                            if item is not POISONED and item.unlinked.load() == 1)
        return {"mode": self.mode, "unlink_first": retired + unlinked_once,
                "retired": retired, "freed": freed, "pending": self.pending()}

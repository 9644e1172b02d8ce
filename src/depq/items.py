"""Key model, items, and the arena that owns them.

Every element stored in a queue is an :class:`Item` living in an
:class:`Arena` and referenced by its arena index.  Indices stay valid until
reclamation retires the item; retired slots are replaced by a poison
sentinel so that any late access trips an assertion instead of silently
reading freed state.

An item's key is one int, ``user_key << 64 | uid`` (see :func:`key_of`).
The uid is the item's arena index, below 2**64 and strictly increasing in
creation order, so plain int order on keys is the lexicographic order on
``(user_key, uid)``, negative and arbitrarily large user keys included,
two items never compare equal even when callers insert duplicate user
keys, and ``key & UID_MASK`` names the item's slot.
"""

from __future__ import annotations

import threading
from operator import index as as_int
from typing import Protocol

from .atomics import checkpoint, sited

MIN = 0
MAX = 1
ENDS = (MIN, MAX)

#: Absent successor in a link word.
NONE_IDX = -1


#: Bits of a key below its user key: every uid is below 2**UID_BITS.
UID_BITS = 64
UID_MASK = (1 << UID_BITS) - 1


def key_of(user_key: int, uid: int) -> int:
    """The key of the item with this user key and uid: ``user_key << 64 | uid``."""
    return user_key << UID_BITS | uid


def user_key_of(key: int) -> int:
    return key >> UID_BITS


def uid_of(key: int) -> int:
    return key & UID_MASK


def key_less(a: int, b: int) -> bool:
    """Strict total order on keys: lexicographic on (user_key, uid)."""
    return a < b


def pack_link(succ: int, mark: int) -> int:
    """Pack (successor index, mark bit) into one word.

    The mark lives in the low bit; NONE_IDX packs to successor bits 0 so the
    initial word of a fresh cell is ``0`` = (no successor, unmarked).
    """
    return ((succ + 1) << 1) | mark


def unpack_link(word: int) -> tuple[int, int]:
    return (word >> 1) - 1, word & 1


class Item:
    """A queue element: its key, its claim flag and its retire count.  Its
    arena index is not stored: callers reach an item through it.

    ``reserved`` arbitrates which end's extraction claims the item; it is
    set 0->1 at most once.  ``unlinked`` counts physical removals (one per
    list); its second increment signals the item is unreachable from both
    lists.  That is all the generic construction asks of an element, and
    all :meth:`Arena.new_item` builds, so an item on the heaps carries
    nothing else.

    The list fields are declared here but set only by the lists, on a node
    they link (see :meth:`depq.ordered_list.ListPair.insert`): ``link``,
    one raw link word per end (see :func:`pack_link`); ``linked_into`` /
    ``marked_into``, one tag per end written only in the same step as the
    publish CAS / marking fetch-or.  ``marked_into`` is the node's one
    deletion record: the auditor reads it, and so does a search that meets
    the item's index entry, as that entry's dead flags.  Reading one on an
    item no list has taken raises ``AttributeError``.

    ``reserved``, ``unlinked`` and both link words are plain values, as
    :mod:`depq.atomics` sets out: every read-modify-write of one (the claim,
    the retire count's increment, the publish CAS and the marking fetch-or)
    runs under the arena's :attr:`~Arena.rmw_lock`.  Each read or
    read-modify-write that has a pause site pauses there first, through
    ``checkpoint``.
    """

    __slots__ = ("key", "reserved", "unlinked", "link", "linked_into",
                 "marked_into")

    def __init__(self, key: int | None):
        self.key = key  # None only for the sentinel dummy
        self.reserved = 0
        self.unlinked = 0

    @property
    def user_key(self) -> int:
        assert self.key is not None, "sentinel key is never read"
        return self.key >> UID_BITS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Item(key={self.key})"


class _Poisoned:
    def __repr__(self) -> str:  # pragma: no cover
        return "<reclaimed>"


POISONED = _Poisoned()


class ReclaimedAccessError(AssertionError):
    """An operation touched an item after it was deallocated."""


def reclaimed_access(index: int) -> ReclaimedAccessError:
    return ReclaimedAccessError(f"item {index} accessed after reclamation")


class Arena:
    """Owner of all items of one queue instance.

    Items are referenced by index; the arena only grows, so indices are
    never reused (no ABA on link words).  Reclamation replaces the slot
    with a poison sentinel, dropping the item object itself.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._items: list[Item | _Poisoned] = []

    @property
    def rmw_lock(self) -> threading.Lock:
        """The lock of every read-modify-write of an item's shared words."""
        return self._lock

    @property
    def slots(self) -> list:
        """The slot list itself, for hot loops that inline :meth:`item`:
        a slot holding ``POISONED`` must raise ``reclaimed_access``."""
        return self._items

    def new_item(self, user_key: int) -> int:
        """Create a fresh item whose uid is its index; returns the index.

        Raises ``TypeError``, before any state changes, for a user key that
        is not an integer; one with ``__index__`` is converted exactly.
        """
        high = as_int(user_key) << UID_BITS
        lock = self._lock
        lock.acquire()
        try:
            items = self._items
            index = len(items)
            items.append(Item(high | index))
            return index
        finally:
            lock.release()

    def new_dummy(self) -> int:
        """Create a sentinel item whose key is never compared."""
        with self._lock:
            self._items.append(Item(None))
            return len(self._items) - 1

    def item(self, index: int) -> Item:
        it = self._items[index]
        if it is POISONED:
            raise reclaimed_access(index)
        return it  # type: ignore[return-value]

    def is_poisoned(self, index: int) -> bool:
        return self._items[index] is POISONED

    def __len__(self) -> int:
        return len(self._items)


@sited
def try_reserve(item: Item, lock: threading.Lock) -> bool:
    """Atomically claim an item; True iff this call flipped reserved 0->1.

    ``lock`` is the rmw_lock of the item's arena.  Pauses at ``reserve``.
    """
    checkpoint("reserve")
    lock.acquire()
    try:
        if item.reserved:
            return False
        item.reserved = 1
        return True
    finally:
        lock.release()


def is_reserved(item: Item) -> bool:
    return item.reserved != 0


class PriorityQueue(Protocol):
    """Contract the generic two-queue construction consumes.

    ``pq_extract_first`` returns the arena index of a minimal item under
    the queue's own order, or None when empty at the linearization point.
    At most one consumer may run ``pq_extract_first`` at a time; inserts
    are unrestricted.  ``pq_delete`` exists only when ``has_delete``.

    The rest is read at quiescence: ``contents`` lists the arena indices
    still on the queue, claimed or not; ``problems`` describes each failed
    structural check (empty when the queue passes).
    """

    has_delete: bool

    def pq_insert(self, index: int) -> None: ...

    def pq_extract_first(self) -> int | None: ...

    def pq_delete(self, index: int) -> bool: ...

    def contents(self) -> list[int]: ...

    def problems(self) -> list[str]: ...

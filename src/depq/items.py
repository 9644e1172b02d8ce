"""Key model, and the arena that holds every item as a slot.

Every element stored in a queue is a *slot* of an :class:`Arena`: an index
into the arena's five lists of ints, its key, its claim flag, its ``state``
word of retire and per-end list bits, and its two link words.  No item is an
object of its own; :class:`Item` is only a read-only copy of one slot for
quiescent reads.  Indices stay valid until reclamation retires the item;
a freed slot's key is a poison sentinel, so that any late access trips an
assertion instead of silently reading freed state.

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
from typing import NamedTuple, Protocol

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


#: Bits of a slot's ``state`` word (see :class:`Arena`).  One step of the
#: 2-bit retire count, and the count's bits.
UNLINK = 1
UNLINKS = 3
#: Per end, indexed by ``MIN``/``MAX``: the node is linked into that list,
#: and the node is logically deleted from it (its deletion tag).
LINKED = (4, 8)
MARKED = (16, 32)


class Item(NamedTuple):
    """A read-only copy of one slot, for quiescent reads (tests, audits of
    one node, the benchmark's checks).  No hot path builds one.

    ``reserved`` is the claim flag and ``unlinked`` the retire count, read
    out of the slot's ``state`` word; ``link`` holds the slot's two
    link words (see :func:`pack_link`), and ``linked_into`` /
    ``marked_into`` its two linked-into bits and two deletion tags, by end.
    An item no list has taken has both link words 0 and every bit clear.
    """

    key: int | None       # None only for the sentinel dummy
    reserved: int
    unlinked: int
    link: tuple[int, int]
    linked_into: tuple[bool, bool]
    marked_into: tuple[bool, bool]

    @property
    def user_key(self) -> int:
        assert self.key is not None, "sentinel key is never read"
        return self.key >> UID_BITS


class _Poisoned:
    def __repr__(self) -> str:  # pragma: no cover
        return "<reclaimed>"


POISONED = _Poisoned()


class ReclaimedAccessError(AssertionError):
    """An operation touched an item after it was deallocated."""


def reclaimed_access(index: int) -> ReclaimedAccessError:
    return ReclaimedAccessError(f"item {index} accessed after reclamation")


class Arena:
    """Owner of all items of one queue instance, as five lists indexed by
    slot, so a node is a few ints in lists the arena owns and no object of
    its own.

    - ``keys[i]``: the item's key (see :func:`key_of`); None for a
      sentinel, and ``POISONED`` once the slot is freed.
    - ``reserved[i]``: the claim flag, set 0->1 at most once and
      arbitrating which end's extraction claims the item.  It has a list
      of its own, apart from ``state``, so that a claim is a plain read and
      store of one int, as cheap as the attribute store it replaces.
    - ``state[i]``: one int of bits: the retire count in ``UNLINKS``, one
      ``UNLINK`` per physical removal
      from a list, whose second increment signals the item is unreachable
      from both lists; and per end the linked-into bit ``LINKED[end]``,
      set in the same step as the publish CAS, and the deletion tag
      ``MARKED[end]``, set in the same step as the marking fetch-or.  The
      tag is the node's one deletion record: the auditor reads it, and so
      does a search that meets the item's index entry, as that entry's
      dead flag on that end.
    - ``links[end][i]``: the slot's raw link word on that end's list (see
      :func:`pack_link`), 0 until a list links it.

    Each word is a plain value, as :mod:`depq.atomics` sets out: every
    write of a claim flag or a ``state`` word and every read-modify-write
    of a link word (the claim, the retire count's increment, the publish
    CAS, the marking
    fetch-or and the tags beside them) runs under :attr:`rmw_lock`.  The
    hot loops hoist these lists and check ``keys[i] is POISONED``
    themselves.  The arena only grows, so a slot is never reused (no ABA
    on link words).  Freeing a slot stores ``POISONED`` as its key and 0
    in both its link words, so it holds no object of its own; its claim
    flag and ``state`` word stay, small ints.
    """

    __slots__ = ("rmw_lock", "keys", "reserved", "state", "links")

    def __init__(self) -> None:
        #: The lock of every write of a slot's shared words.
        self.rmw_lock = threading.Lock()
        self.keys: list = []
        self.reserved: list[int] = []
        self.state: list[int] = []
        self.links: list[list[int]] = [[], []]

    def new_item(self, user_key: int) -> int:
        """Create a fresh item whose uid is its index; returns the index.

        Raises ``TypeError``, before any state changes, for a user key that
        is not an integer; one with ``__index__`` is converted exactly.
        """
        high = as_int(user_key) << UID_BITS
        lock = self.rmw_lock
        lock.acquire()
        try:
            keys = self.keys
            index = len(keys)
            keys.append(high | index)
            self.reserved.append(0)
            self.state.append(0)
            links = self.links
            links[MIN].append(0)
            links[MAX].append(0)
            return index
        finally:
            lock.release()

    def new_dummy(self) -> int:
        """Create a sentinel item whose key is never compared."""
        with self.rmw_lock:
            self.keys.append(None)
            self.reserved.append(0)
            self.state.append(0)
            for words in self.links:
                words.append(0)
            return len(self.keys) - 1

    def item(self, index: int) -> Item:
        """A copy of the slot at ``index``; quiescent use only.  Raises
        ``ReclaimedAccessError`` on a freed slot."""
        key = self.keys[index]
        if key is POISONED:
            raise reclaimed_access(index)
        s = self.state[index]
        return Item(key, self.reserved[index], s & UNLINKS,
                    (self.links[MIN][index], self.links[MAX][index]),
                    (bool(s & LINKED[MIN]), bool(s & LINKED[MAX])),
                    (bool(s & MARKED[MIN]), bool(s & MARKED[MAX])))

    def is_poisoned(self, index: int) -> bool:
        return self.keys[index] is POISONED

    def free(self, indices: list[int]) -> None:
        """Free each slot of ``indices``: poison its key and zero its link
        words, dropping the objects it held."""
        keys = self.keys
        min_links, max_links = self.links
        for index in indices:
            keys[index] = POISONED
            min_links[index] = max_links[index] = 0

    def __len__(self) -> int:
        return len(self.keys)


@sited
def try_reserve(arena: Arena, index: int) -> bool:
    """Atomically claim the item at ``index``; True iff this call flipped
    its claim flag 0->1.  Pauses at ``reserve``."""
    checkpoint("reserve")
    reserved = arena.reserved
    lock = arena.rmw_lock
    lock.acquire()
    try:
        if reserved[index]:
            return False
        reserved[index] = 1
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

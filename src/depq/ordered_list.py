"""Shared-node, marked-link sorted lists.

A :class:`ListPair` keeps every item on two singly linked lists at once:
end ``MIN`` sorted ascending and end ``MAX`` sorted descending.  Each list
removes elements in two phases.  A consumer *logically deletes* the first
live node by setting the mark bit in the link word of the previous node
(one atomic fetch-or), so the logically deleted nodes always form a prefix
of the list.  Then that previous node is *physically deleted* by advancing
the head pointer past it.

Each end keeps one pointer, its head, which is always a logically deleted
node.  An end's consumer sweeps after each pop that returns a node, before
its next pop, so between pops the deleted prefix is the head alone: a pop
marks the head's link word, and its sweep moves the head to the node that
word names.  This is Lindén and Jonsson's deleted prefix with the batching
of physical deletion taken out; a second pop before the sweep finds the
head's word already marked and fails an assertion.

The lists never claim an item.  :class:`ListPq` makes one end a plain
single-ended priority queue, whose pop also sweeps; the generic
construction of :mod:`depq.dual_depq` claims items over two.

Insertion is lock-free: any number of threads may insert concurrently with
each other and with the per-end consumer.  One insert links its node into
both lists, the ascending one first.  A failed insert CAS resumes the
search from the node where it failed, never from the head, because nodes
are only ever removed from the front.

Beside the two lists sits one sorted-key *index*, ordered by key: a
short list of sorted chunks of item keys, with a ``maxes`` list holding
each chunk's last key, searched with the standard library's C ``bisect``.
It stands where the skiplist stands in Lindén and Jonsson's priority
queue.  An entry is the item's key itself, one int: since an item's
uid is its arena index, ``key & UID_MASK`` names the item's slot.  One
index serves both ends although the lists' physical orders can drift
apart: only the deleted prefixes drift (a key inserted after a deletion
lands behind the deleted prefix, whatever its key), while each live
suffix stays sorted by key.  So an entry whose node is still live on an
end is a valid start on that end for any larger key (ascending) or any
smaller key (descending).  An entry's dead flags are its item's deletion
tags, one per end, read through the slot, so the consumer's one tag store
kills the entry on that end too.  Every node gets an entry once it is on
both lists.  The index holds only search hints: one search finds a node
just before the new key's slot on each list, and both list searches run
from there instead of from the heads.  Writes to the index run under the
arena's ``rmw_lock``; searches take no lock and re-validate every entry
they read, so a chunk that changes under a search costs only speed.

Ordering invariants are runtime-checkable through :meth:`ListPair.audit`,
which is meant to run at quiescent points or with other threads parked by
the controlled scheduler.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from .atomics import checkpoint, sited
from .items import (MAX, MIN, NONE_IDX, POISONED, UID_MASK, Arena, key_less,
                    reclaimed_access, uid_of, unpack_link, user_key_of)


#: Entries an index chunk may hold; one more splits it in two.
CHUNK_CAP = 128

#: Entries a search reads on each side of the new key.
_SCAN = 4


def _shown(key: int) -> str:
    """A key as ``(user_key, uid)``, for audit notes."""
    return f"({user_key_of(key)}, {uid_of(key)})"


def comes_before(a: int, b: int, end: int) -> bool:
    """Should key ``a`` sit before key ``b`` on the given end's list?"""
    if end == MIN:
        return key_less(a, b)
    return key_less(b, a)


class ListPair:
    """Two sorted lists over one arena, the index beside both, and their
    deletion bookkeeping.

    Concurrency contract: ``insert`` from any thread; ``extract_first`` and
    ``sweep_head`` from at most one thread per end at a time (the
    combiner, or the sole consumer of a single-ended setup), which sweeps
    after each pop that returns a node, before its next pop;
    ``audit`` only while the structure is quiescent or other threads are
    parked at instrumented sites.
    """

    def __init__(self, arena: Arena):
        self.arena = arena
        # The slot list itself, for the hot loops (see ``Arena.slots``).
        self._slots = arena.slots
        # Bumped by any inserter, under ``_lock``, on the rare failed CAS.
        self.insert_cas_failures = 0
        dummy = arena.new_dummy()
        dummy_item = arena.item(dummy)
        # The sentinel is on both lists and counts as logically deleted
        # from the start; it has no index entry.
        dummy_item.link = [0, 0]
        dummy_item.linked_into = [True, True]
        dummy_item.marked_into = [True, True]
        self.dummy = dummy
        self._head = [dummy, dummy]
        # The index: sorted chunks of item keys, ascending across chunks,
        # and each chunk's last key.  Changed only under ``_lock``, as the
        # items' link words are: see :class:`~depq.items.Item`.
        self._lock = arena.rmw_lock
        self._chunks: list[list[int]] = []
        self._maxes: list[int] = []

    # -- accessors -----------------------------------------------------------

    def head(self, end: int) -> int:
        return self._head[end]

    # -- operations ----------------------------------------------------------

    @sited
    def insert(self, index: int) -> None:
        """Link a fresh item into both lists, the ascending one first.

        The item comes from :meth:`Arena.new_item` with only its key and
        flags; the first step, before any pause site and before the node
        can be published, gives it the list fields (see :class:`Item`):
        two link words with no successor and both tags False.  One index
        search yields both list starts (see ``_index_search``).  Each
        publish CAS is retried until it lands, resuming from the node whose
        link word changed underneath it.  Once the node is on both lists,
        its key enters the index: no search may start from a node that is
        not yet on the descending list.
        """
        node = self._slots[index]
        k = node.key
        assert k is not None
        # A word of 0 is pack_link(NONE_IDX, 0): no successor, unmarked.
        node.link = [0, 0]
        node.linked_into = [False, False]
        node.marked_into = [False, False]
        ascending, descending = self._index_search(k)
        self._publish(index, MIN, ascending, k)
        checkpoint("between-list-inserts")
        self._publish(index, MAX, descending, k)
        self._index_add(k)

    @sited
    def _publish(self, index: int, end: int, start: int | None,
                 k: int) -> None:
        """Link the item at ``index``, whose key is ``k``, into one list,
        searching from the item at ``start``, or from the head when
        ``start`` is None."""
        # The hot loop works on raw link words (see ``pack_link``) and on the
        # arena's slots directly, checking for poison itself.  Each read or
        # CAS of a link word pauses at its site first, through ``checkpoint``.
        items = self._slots
        node = items[index]
        lock = self._lock
        ascending = end == MIN
        published = (index + 1) << 1   # pack_link(index, 0)
        if start is None:
            checkpoint("ins-read-head")
            pred = self._head[end]
        else:
            pred = start
        while True:
            pred_item = items[pred]
            if pred_item is POISONED:
                raise reclaimed_access(pred)
            checkpoint("ins-read-link")
            word = pred_item.link[end]
            while word > 1:  # names a successor
                succ = (word >> 1) - 1
                succ_item = items[succ]
                if succ_item is POISONED:
                    raise reclaimed_access(succ)
                if not (word & 1 or (succ_item.key < k if ascending
                                     else succ_item.key > k)):
                    break
                pred, pred_item = succ, succ_item
                checkpoint("ins-read-link")
                word = pred_item.link[end]
            if word & 1:
                # A marked end-of-list word is unreachable while consumers
                # honor their contract; retrying against it would spin forever.
                raise AssertionError("end-of-list link is marked")
            expected = word & ~1
            # Unsited: no thread reads this word before the CAS publishes it.
            node.link[end] = expected
            checkpoint("ins-cas")
            pred_link = pred_item.link
            lock.acquire()
            try:
                if pred_link[end] == expected:
                    pred_link[end] = published
                    node.linked_into[end] = True
                    return
                self.insert_cas_failures += 1
            finally:
                lock.release()

    def _index_search(self, k: int) -> tuple[int | None, int | None]:
        """Search the index for key ``k``; return the two list starts.

        Bisects ``maxes``, then one chunk, and reads up to ``_SCAN``
        entries on each side of ``k``, the previous chunk's last ones
        included.  The ascending start is the slot of the nearest entry
        below ``k`` read as not dead on MIN; the descending one, that of
        the nearest entry above ``k`` read as not dead on MAX.  An entry
        counts only if it lies on its side of ``k`` and its slot is not
        poisoned, since a chunk may change under the search.  None for
        either start means that list's head, as does an ``IndexError``.
        Drops every entry it reads whose slot is poisoned or whose item is
        dead on both ends.  Has no pause sites: the index is private to
        this layer.
        """
        slots = self._slots
        chunks = self._chunks
        try:
            i = bisect_left(self._maxes, k)
            chunk = chunks[i] if i < len(chunks) else []
            j = bisect_left(chunk, k)
            above = chunk[j:j + _SCAN]
            if j >= _SCAN:
                below = chunk[j - _SCAN:j]
            else:
                below = (chunks[i - 1][j - _SCAN:] if i else []) + chunk[:j]
        except IndexError:
            return None, None
        ascending = descending = None
        dropped = []
        for entry in reversed(below):
            if entry < k:
                item = slots[entry & UID_MASK]
                if item is POISONED:
                    dropped.append(entry)
                elif not item.marked_into[MIN]:
                    ascending = entry & UID_MASK
                    break
                elif item.marked_into[MAX]:
                    dropped.append(entry)
        for entry in above:
            if entry > k:
                item = slots[entry & UID_MASK]
                if item is POISONED:
                    dropped.append(entry)
                elif not item.marked_into[MAX]:
                    descending = entry & UID_MASK
                    break
                elif item.marked_into[MIN]:
                    dropped.append(entry)
        if dropped:
            self._index_drop(dropped)
        return ascending, descending

    def _index_add(self, k: int) -> None:
        """Insert key ``k`` into its chunk, once its node is on both lists;
        split the chunk in two once it holds more than ``CHUNK_CAP``."""
        chunks, maxes = self._chunks, self._maxes
        lock = self._lock
        lock.acquire()
        try:
            if not maxes:
                chunks.append([k])
                maxes.append(k)
                return
            i = bisect_left(maxes, k)
            if i == len(maxes):   # above every entry: the last chunk grows
                i -= 1
                maxes[i] = k
            chunk = chunks[i]
            insort(chunk, k)
            if len(chunk) > CHUNK_CAP:
                half = len(chunk) >> 1
                chunks.insert(i + 1, chunk[half:])
                del chunk[half:]
                maxes.insert(i, chunk[-1])
        finally:
            lock.release()

    def _index_drop(self, keys: list[int]) -> None:
        """Delete each of ``keys`` still in the index, and every chunk left
        empty."""
        chunks, maxes = self._chunks, self._maxes
        lock = self._lock
        lock.acquire()
        try:
            for k in keys:
                i = bisect_left(maxes, k)
                if i == len(maxes):
                    continue
                chunk = chunks[i]
                j = bisect_left(chunk, k)
                if j == len(chunk) or chunk[j] != k:
                    continue   # another search dropped it
                del chunk[j]
                if not chunk:
                    del chunks[i]
                    del maxes[i]
                elif j == len(chunk):
                    maxes[i] = chunk[-1]
        finally:
            lock.release()

    @sited
    def extract_first(self, end: int) -> int | None:
        """Logically delete the first live node of one list and return it, or
        None if the list is empty.  The node may already be claimed by the
        other end: claiming is the caller's step (see :mod:`depq.dual_depq`).

        Consumer-only, and only once the end's last pop that returned a
        node has been swept, so the head is the whole deleted prefix.  Marks
        the head's link word with one fetch-or; the successor it names is
        the node deleted, and its tag for this end, which is also its index
        entry's dead flag, is set.
        """
        # Raw link words and inlined poison checks, as in ``insert``.
        items = self._slots
        head = self._head[end]
        head_item = items[head]
        if head_item is POISONED:
            raise reclaimed_access(head)
        checkpoint("ex-read-lastnext")
        if head_item.link[end] <= 1:
            # No successor.  Linearized at the link read above; a racing
            # insert that lands afterwards does not invalidate the empty
            # answer.
            return None
        checkpoint("ex-mark")
        link = head_item.link
        lock = self._lock
        lock.acquire()
        try:
            prior = link[end]
            link[end] = prior | 1
        finally:
            lock.release()
        assert not prior & 1, "link was already marked: consumer contract broken"
        assert prior > 1, "marked an end-of-list link"
        target = (prior >> 1) - 1
        item = items[target]
        if item is POISONED:
            raise reclaimed_access(target)
        # Set in the same step as the fetch-or above, before sweep_head can
        # hand the node to reclamation.  Each end writes only its own entry.
        item.marked_into[end] = True
        return target

    @sited
    def sweep_head(self, end: int) -> list[int]:
        """Physically delete the head once a pop has marked its link word.

        Consumer-only.  Moves the head to the node the marked word names,
        the node the pop returned, and returns the old head in a list, for
        the caller to run through reclamation; returns ``[]`` when the
        word is not marked.  Only the head write pauses (see
        :mod:`depq.atomics`): a marked word never changes and only this
        end's consumer sets a mark.
        """
        head = self._head[end]
        item = self._slots[head]
        if item is POISONED:
            raise reclaimed_access(head)
        word = item.link[end]
        if not word & 1:
            return []
        checkpoint("uh-write-head")
        self._head[end] = (word >> 1) - 1
        return [head]

    # -- inspection ----------------------------------------------------------

    def _links(self, end: int) -> tuple[list[int], list[int]]:
        """The node indices reachable from the head, in list order, and the
        mark bit of the link that reaches each (0 for the head).  A walk
        longer than the arena, a cycle, raises ``AssertionError`` naming
        the end."""
        arena = self.arena
        nodes, marks = [], []
        node, marked = self._head[end], 0
        for _ in range(len(arena)):
            nodes.append(node)
            marks.append(marked)
            node, marked = unpack_link(arena.item(node).link[end])
            if node == NONE_IDX:
                return nodes, marks
        raise AssertionError(f"{('min', 'max')[end]} list walk exceeds the "
                             "arena size: cycle suspected")

    def walk(self, end: int) -> list[int]:
        """All node indices reachable from the head, in list order.  Raises
        on a cycle, as ``_links`` does."""
        return self._links(end)[0]

    def index_keys(self) -> list[int]:
        """The index's entries, in chunk order, dead ones included."""
        return [k for chunk in self._chunks for k in chunk]

    def suffix(self, end: int) -> list[int]:
        """Node indices of the live suffix, in list order, claimed nodes
        included: the walk past the head and the nodes reached over marked
        links after it.  Raises on a cycle, as ``_links`` does."""
        nodes, marks = self._links(end)
        live = 1
        while live < len(nodes) and marks[live]:
            live += 1
        return nodes[live:]

    def suffix_keys(self, end: int, include_reserved: bool = False) -> list[int]:
        """Keys of the live suffix, in list order."""
        items = map(self.arena.item, self.suffix(end))
        return [item.key for item in items
                if include_reserved or item.reserved == 0]

    def audit(self, end: int) -> "AuditReport":
        """Check the structural invariants of one list."""
        arena = self.arena
        report = AuditReport(end=end)
        try:
            nodes, marks = self._links(end)
        except AssertionError as exc:
            report.finite = False
            report.notes.append(str(exc))
            nodes, marks = [], []
        items = [arena.item(node) for node in nodes]
        tags = [item.marked_into[end] for item in items]
        report.path = [(node, None if item.key is None else user_key_of(item.key), tagged)
                       for node, item, tagged in zip(nodes, items, tags)]

        # Deleted nodes must form a prefix, and the deletion tags must agree
        # with the mark bits on the edges inside the walk.
        in_prefix = True
        for pos, tagged in enumerate(tags):
            if tagged and not in_prefix:
                report.deleted_prefix = False
                report.notes.append(f"deleted node at position {pos} after live nodes")
            if not tagged:
                in_prefix = False
            # The edge into this node is marked iff the node is deleted.
            if pos and bool(marks[pos]) != tagged:
                report.deleted_prefix = False
                report.notes.append(
                    f"edge to position {pos} mark bit disagrees with deletion tag")

        keys = [item.key for item, tagged in zip(items, tags) if not tagged]
        for a, b in zip(keys, keys[1:]):
            assert a is not None and b is not None
            if not comes_before(a, b, end):
                report.suffix_sorted = False
                report.notes.append(f"suffix out of order: {_shown(a)} !< {_shown(b)}")

        if not arena.item(self._head[end]).marked_into[end]:
            report.head_deleted = False
            report.notes.append("head names a live node")

        self._audit_index(end, report)
        # No pause site lies inside a critical section, so a thread parked
        # or done never holds the lock: a held one is a missed release.
        if self._lock.locked():
            report.index_consistent = False
            report.notes.append("rmw_lock held at a quiescent point")
        return report

    def _audit_index(self, end: int, report: "AuditReport") -> None:
        """The chunks are non-empty and within ``CHUNK_CAP``, each ends at
        its entry in ``maxes``, and entries strictly ascend across them;
        an entry of an unreclaimed slot is that item's key, and one live on
        this end names an item linked into both lists."""
        slots = self._slots
        chunks, maxes = self._chunks, self._maxes
        notes = []
        if len(chunks) != len(maxes):
            notes.append(f"index has {len(chunks)} chunks but {len(maxes)} maxes")
        for pos, (chunk, top) in enumerate(zip(chunks, maxes)):
            if not chunk or chunk[-1] != top:
                notes.append(f"index chunk {pos} does not end at its max {_shown(top)}")
            if len(chunk) > CHUNK_CAP:
                notes.append(f"index chunk {pos} holds {len(chunk)} entries")
        entries = self.index_keys()
        for a, b in zip(entries, entries[1:]):
            if not key_less(a, b):
                notes.append(f"index out of order: {_shown(a)} !< {_shown(b)}")
        for k in entries:
            slot = k & UID_MASK
            item = slots[slot] if slot < len(slots) else None
            if item is POISONED:
                continue
            if item is None or item.key != k:
                notes.append(f"index entry {_shown(k)} is not the key of item {slot}")
            elif not item.marked_into[end] and not all(item.linked_into):
                notes.append(f"entry live on this end names item {slot}, "
                             "which is not on both lists")
        if notes:
            report.index_consistent = False
            report.notes += notes


@dataclass
class AuditReport:
    """Pass/fail per structural claim, with the walked path for diagnostics."""

    end: int
    finite: bool = True
    deleted_prefix: bool = True
    suffix_sorted: bool = True
    head_deleted: bool = True
    index_consistent: bool = True
    path: list[tuple[int, int | None, bool]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.finite and self.deleted_prefix and self.suffix_sorted
                and self.head_deleted and self.index_consistent)

    def describe(self) -> str:
        claims = [
            ("finite list", self.finite),
            ("deleted nodes form a prefix", self.deleted_prefix),
            ("live suffix sorted", self.suffix_sorted),
            ("head logically deleted", self.head_deleted),
            ("index consistent", self.index_consistent),
        ]
        lines = [f"audit end={self.end}"]
        lines += [f"  [{'ok' if good else 'FAIL'}] {name}" for name, good in claims]
        lines += [f"  note: {n}" for n in self.notes]
        lines.append("  path: " + " -> ".join(
            f"{idx}({'·' if key is None else key}{'*' if tagged else ''})"
            for idx, key, tagged in self.path))
        return "\n".join(lines)


class ListPq:
    """Single-consumer priority queue backed by one end of a ListPair.

    Two of these over the same pair (one per end) give a pair of priority
    queues that share their nodes; each uses its own link words, so they
    never interfere.  No arbitrary-delete support.

    The sole consumer doubles as the sweeper: each extraction physically
    deletes the node behind it, as the pair's contract asks, and otherwise
    inserts would wade through an ever-growing dead prefix.  This is the
    one place that sweeps.  Nodes it unlinks go to the reclaimer when one
    is attached, and each pop then tries to advance the reclaimer's epoch,
    so the path that retires nodes also frees them.
    """

    has_delete = False

    def __init__(self, lists: ListPair, end: int, reclaimer=None):
        self.lists = lists
        self.end = end
        self.reclaimer = reclaimer

    def pq_insert(self, index: int) -> None:
        """The ascending queue makes the pair insert, which links the node
        into both lists; the descending queue shares that node, so it only
        checks that the node is already on its list."""
        if self.end == MIN:
            self.lists.insert(index)
        else:
            assert self.lists.arena.item(index).linked_into[MAX], \
                "descending insert before the ascending one"

    def pq_extract_first(self) -> int | None:
        got = self.lists.extract_first(self.end)
        removed = self.lists.sweep_head(self.end)
        reclaimer = self.reclaimer
        if reclaimer is not None:
            for index in removed:
                reclaimer.on_unlink(index)
            reclaimer.try_advance()
        return got

    def pq_delete(self, index: int) -> bool:
        raise NotImplementedError("list-backed queue has no arbitrary delete")

    def contents(self) -> list[int]:
        return self.lists.suffix(self.end)

    def problems(self) -> list[str]:
        report = self.lists.audit(self.end)
        return [] if report.ok else [report.describe()]

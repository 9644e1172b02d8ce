"""Shared-node, marked-link sorted lists.

A :class:`ListPair` keeps every item on two singly linked lists at once:
end ``MIN`` sorted ascending and end ``MAX`` sorted descending.  Each list
removes elements in two phases.  A consumer *logically deletes* the first
live node by setting the mark bit in the link word of the previous node
(one atomic fetch-or), so the logically deleted nodes always form a prefix
of the list.  Later the whole prefix is *physically deleted* in one step by
advancing the head pointer.

Each end keeps one pointer, its head.  The head is always a logically
deleted node, and once a sweep has run it is the deleted prefix's last
node.  The consumer finds that last node by following marked link words
from the head, as in Lindén and Jonsson's deleted prefix; since every pop
is swept, that walk takes no steps in practice.

The lists never claim an item.  :class:`ListPq` makes one end a plain
single-ended priority queue, whose pop also sweeps the deleted prefix; the
generic construction of :mod:`depq.dual_depq` claims items over two.

Insertion is lock-free: any number of threads may insert concurrently with
each other and with the per-end consumer.  One insert links its node into
both lists, the ascending one first.  A failed insert CAS resumes the
search from the node where it failed, never from the head, because nodes
are only ever removed from the front.

Above the two lists sits one skiplist *index*, in the manner of Lindén and
Jonsson's skiplist priority queue, ordered by key.  One index serves both
ends although the lists' physical orders can drift apart: only the deleted
prefixes drift (a key inserted after a deletion lands behind the deleted
prefix, whatever its key), while each live suffix stays sorted by key.  So
a tower whose node is still live on an end is a valid start on that end
for any larger key (ascending) or any smaller key (descending).  Each
tower has one dead flag per end, set by that end's consumer; it is unlinked
only once both are set.  The index holds only search hints: one search
finds a node close before the new key's slot on each list, and both list
searches run from there instead of from the heads.  An index link may be
lost to a race; that costs only speed, never correctness.

Ordering invariants are runtime-checkable through :meth:`ListPair.audit`,
which is meant to run at quiescent points or with other threads frozen by
the controlled scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .atomics import AtomicCell, checkpoint
from .items import (MAX, MIN, NONE_IDX, POISONED, Arena, Item, Key, key_less,
                    pack_link, reclaimed_access, unpack_link)


#: Index levels above the lists; tower heights are capped here.
LEVELS = 24


def tower_height(uid: int) -> int:
    """Number of index levels for the item with this uid.

    Geometric with p = 1/2 (P(height >= j) = 2**-j), capped at LEVELS: the
    count of trailing one bits of a multiplicative hash of the uid.  A pure
    function of the uid, so seeded and stepped runs stay deterministic.
    """
    bits = (uid * 0x9E3779B97F4A7C15 >> 32) & 0xFFFFFFFF
    return min((bits ^ (bits + 1)).bit_length() - 1, LEVELS)


class IndexNode:
    """One item's tower in the pair's index.

    ``key`` and ``index`` copy the item's key and arena index, so a search
    compares keys without touching the item.  ``next[lvl]`` is the next
    tower on index level ``lvl``, or None.  ``min_dead`` and ``max_dead``
    are one flag per end, each set only by that end's consumer when it
    logically deletes the item; from then on the item may be reclaimed, so
    a tower leads to its item as a start on one end only if it was read as
    not dead on that end.  Two separate fields, so the two consumers never
    overwrite each other's flag.  A tower dead on both ends is unlinked by
    the searches that meet it.
    """

    __slots__ = ("key", "index", "min_dead", "max_dead", "next")

    def __init__(self, key: Key, index: int, height: int):
        self.key = key
        self.index = index
        self.min_dead = False
        self.max_dead = False
        self.next: list[IndexNode | None] = [None] * height


def comes_before(a: Key, b: Key, end: int) -> bool:
    """Should key ``a`` sit before key ``b`` on the given end's list?"""
    if end == MIN:
        return key_less(a, b)
    return key_less(b, a)


class ListPair:
    """Two sorted lists over one arena, the index above both, and their
    deletion bookkeeping.

    Concurrency contract: ``insert`` from any thread; ``extract_first`` and
    ``sweep_head`` from at most one thread per end at a time (the
    combiner, or the sole consumer of a single-ended setup);
    ``audit`` only while the structure is quiescent or other threads are
    frozen at instrumented sites.
    """

    def __init__(self, arena: Arena):
        self.arena = arena
        # Per-end counts, each bumped only by its end's consumer.
        self.marks = [0, 0]
        # Bumped by any inserter, under ``_lock``, on the rare failed CAS.
        self.insert_cas_failures = 0
        dummy = arena.new_dummy()
        dummy_item = arena.item(dummy)
        # The sentinel counts as logically deleted from the start.
        dummy_item.marked_into[MIN] = True
        dummy_item.marked_into[MAX] = True
        dummy_item.linked_into[MIN] = True
        dummy_item.linked_into[MAX] = True
        self.dummy = dummy
        lock = arena.rmw_lock
        self._head = [AtomicCell(dummy, lock), AtomicCell(dummy, lock)]
        # The first tower on each index level, and the number of levels in
        # use.  Index links are plain references, changed by compare-and-swap
        # under ``lock``; ``_top`` only grows, also under ``lock``.
        self._lock = lock
        self._index: list[IndexNode | None] = [None] * LEVELS
        self._top = 0

    # -- accessors -----------------------------------------------------------

    def head(self, end: int) -> int:
        return self._head[end].load()

    # -- operations ----------------------------------------------------------

    def insert(self, index: int) -> None:
        """Link a fresh node into both lists, the ascending one first.

        One index search yields both list starts (see ``_index_search``).
        Each publish CAS is retried until it lands, resuming from the node
        whose link word changed underneath it.  Once the node is on both
        lists, its tower is linked into the index: no search may start from
        a node that is not yet on the descending list.
        """
        node = self.arena.item(index)
        k = node.key
        assert k is not None
        # The tower is attached before the first publish, so the consumer
        # that deletes this node on either end always finds it to mark.
        height = tower_height(k.uid)
        tower = node.tower = IndexNode(k, index, height) if height else None
        preds = [self._index] * height
        ascending, descending = self._index_search(k, preds)
        self._publish(node, MIN, ascending, k.__gt__)
        checkpoint("between-list-inserts")
        self._publish(node, MAX, descending, k.__lt__)
        if tower is not None:
            self._link_tower(tower, preds)

    def _publish(self, node: Item, end: int, start: IndexNode | None,
                 sorts_before_k) -> None:
        """Link ``node`` into one list, searching from ``start``'s item, or
        from the head when ``start`` is None."""
        # The hot loop works on raw link words (see ``pack_link``) and on the
        # arena's slots directly, checking for poison itself.
        items = self.arena.slots
        published = pack_link(node.index, 0)
        if start is None:
            pred = self._head[end].load(site="ins-read-head")
        else:
            pred = start.index
        while True:
            pred_item = items[pred]
            if pred_item is POISONED:
                raise reclaimed_access(pred)
            word = pred_item.link[end].load(site="ins-read-link")
            while word > 1:  # names a successor
                succ = (word >> 1) - 1
                succ_item = items[succ]
                if succ_item is POISONED:
                    raise reclaimed_access(succ)
                if not (word & 1 or sorts_before_k(succ_item.key)):
                    break
                pred, pred_item = succ, succ_item
                word = pred_item.link[end].load(site="ins-read-link")
            if word & 1:
                # A marked end-of-list word is unreachable while consumers
                # honor their contract; retrying against it would spin forever.
                raise AssertionError("end-of-list link is marked")
            expected = word & ~1
            node.link[end].store(expected, site="ins-set-next")
            if pred_item.link[end].compare_and_swap(expected, published, site="ins-cas"):
                node.linked_into[end] = True
                return
            with self._lock:
                self.insert_cas_failures += 1

    def _index_search(self, k: Key, preds: list) -> tuple[IndexNode | None,
                                                         IndexNode | None]:
        """Search the index top-down for key ``k``.

        Returns the two list starts.  The ascending one is the last tower
        passed (key below ``k``) that was read as not dead on MIN.  The
        descending one is the first level-0 tower above ``k`` if it was read
        as not dead on MAX.  None for either means that list's head.  Sets
        ``preds[lvl]`` to the ``next`` list (the head list when None was
        passed) to link a new tower into on level ``lvl``.  Unlinks every
        tower dead on both ends that it meets.  Starts at the highest level
        in use; a stale read of it only starts the search lower.  Has no
        pause sites: the index is private to this layer.
        """
        height = len(preds)
        lock = self._lock
        ascending = nxt = None
        links = self._index
        for lvl in range(self._top - 1, -1, -1):
            nxt = links[lvl]
            while nxt is not None:
                if nxt.min_dead and nxt.max_dead:
                    # May undo a concurrent link into ``nxt``: only a hint lost.
                    with lock:
                        if links[lvl] is nxt:
                            links[lvl] = nxt.next[lvl]
                    nxt = links[lvl]
                elif nxt.key < k:
                    if not nxt.min_dead:
                        ascending = nxt
                    links = nxt.next
                    nxt = links[lvl]
                else:
                    break
            if lvl < height:
                preds[lvl] = links
        # ``nxt`` is now the first level-0 tower above ``k``, or None.
        if nxt is not None and nxt.max_dead:
            nxt = None
        return ascending, nxt

    def _link_tower(self, tower: IndexNode, preds: list) -> None:
        """Link a tower into the index, bottom-up, once its node is on both
        lists; raise the top level when it links above it.

        Stops as soon as the tower is dead on both ends: a search would only
        unlink it again.
        """
        lock = self._lock
        k = tower.key
        for lvl, links in enumerate(preds):
            while True:
                if tower.min_dead and tower.max_dead:
                    return
                nxt = links[lvl]
                if nxt is not None and nxt.key < k:
                    links = nxt.next   # a tower linked here since the search
                    continue
                tower.next[lvl] = nxt
                with lock:
                    if links[lvl] is nxt:
                        links[lvl] = tower
                        if lvl >= self._top:
                            self._top = lvl + 1
                        break

    def extract_first(self, end: int) -> int | None:
        """Logically delete the first live node of one list and return it, or
        None if the list is empty.  The node may already be claimed by the
        other end: claiming is the caller's step (see :mod:`depq.dual_depq`).

        Consumer-only.  Follows the marked link words from the head to the
        deleted prefix's last node, then marks that node's link with one
        fetch-or; the successor it names is the node deleted.
        """
        # Raw link words and inlined poison checks, as in ``insert``.
        items = self.arena.slots
        last = self._head[end].load(site="ex-read-head")
        while True:
            last_item = items[last]
            if last_item is POISONED:
                raise reclaimed_access(last)
            word = last_item.link[end].load(site="ex-read-lastnext")
            if not word & 1:
                break
            last = (word >> 1) - 1   # still in the deleted prefix
        if word <= 1:
            # No successor.  Linearized at the link read above; a racing
            # insert that lands afterwards does not invalidate the empty
            # answer.
            return None
        prior = last_item.link[end].fetch_or(1, site="ex-mark")
        assert not prior & 1, "link was already marked: consumer contract broken"
        assert prior > 1, "marked an end-of-list link"
        target = (prior >> 1) - 1
        item = items[target]
        if item is POISONED:
            raise reclaimed_access(target)
        # Auditor tag and this end's index tombstone; written in the same
        # step as the fetch-or above, and before sweep_head can hand the
        # node to reclamation.  Each end writes only its own flag.
        item.marked_into[end] = True
        tower = item.tower
        if tower is not None:
            if end == MIN:
                tower.min_dead = True
            else:
                tower.max_dead = True
        self.marks[end] += 1
        return target

    def sweep_head(self, end: int) -> list[int]:
        """Physically delete the logically deleted prefix, except its last node.

        Consumer-only.  Walks from the head while the link words are marked
        and moves the head to the first node whose word is not: the prefix's
        last node.  Returns the unlinked node indices (oldest first) so the
        caller can run them through reclamation.  Only the head write
        pauses: a marked word never changes and only this end's consumer
        sets a mark, so a pause before the reads would only multiply the
        interleavings a replay explores.
        """
        items = self.arena.slots
        head_cell = self._head[end]
        node = head_cell.load()
        removed = []
        while True:
            item = items[node]
            if item is POISONED:
                raise reclaimed_access(node)
            word = item.link[end].load()
            if not word & 1:
                break
            removed.append(node)
            node = (word >> 1) - 1
        if removed:
            head_cell.store(node, site="uh-write-head")
        return removed

    # -- inspection ----------------------------------------------------------

    def walk(self, end: int) -> list[int]:
        """All node indices reachable from the head, in list order."""
        arena = self.arena
        out = []
        node = self._head[end].load()
        limit = len(arena) + 2
        while node != NONE_IDX and len(out) <= limit:
            out.append(node)
            node, _ = unpack_link(arena.item(node).link[end].load())
        return out

    def index_walk(self, level: int = 0) -> list[IndexNode]:
        """The towers on one index level, in order, dead ones included.
        Stops after more towers than the arena has items."""
        out = []
        node = self._index[level]
        limit = len(self.arena) + 1
        while node is not None and len(out) <= limit:
            out.append(node)
            node = node.next[level]
        return out

    def suffix(self, end: int) -> list[int]:
        """Node indices of the live suffix (after the deleted prefix), in
        list order, claimed nodes included."""
        arena = self.arena
        word = arena.item(self._head[end].load()).link[end].load()
        while word & 1:   # skip the deleted prefix
            word = arena.item((word >> 1) - 1).link[end].load()
        out = []
        node, _ = unpack_link(word)
        while node != NONE_IDX:
            out.append(node)
            node, _ = unpack_link(arena.item(node).link[end].load())
        return out

    def suffix_keys(self, end: int, include_reserved: bool = False) -> list[Key]:
        """Keys of the live suffix, in list order."""
        items = map(self.arena.item, self.suffix(end))
        return [item.key for item in items
                if include_reserved or item.reserved.load() == 0]

    def audit(self, end: int) -> "AuditReport":
        """Check the structural invariants of one list."""
        arena = self.arena
        report = AuditReport(end=end)
        limit = len(arena) + 2

        node = self._head[end].load()
        path: list[tuple[int, int | None, bool]] = []
        seen = 0
        incoming_marked: list[bool] = []  # incoming_marked[i]: edge path[i] -> path[i+1]
        while node != NONE_IDX:
            seen += 1
            if seen > limit:
                report.finite = False
                report.notes.append("walk exceeded arena size: cycle suspected")
                break
            item = arena.item(node)
            tagged = item.marked_into[end]
            path.append((node, None if item.key is None else item.key.user_key, tagged))
            succ, marked = unpack_link(item.link[end].load())
            if succ != NONE_IDX:
                incoming_marked.append(bool(marked))
            node = succ
        report.path = path

        # Deleted nodes must form a prefix, and the deletion tags must agree
        # with the mark bits on the edges inside the walk.
        tags = [tagged for (_, _, tagged) in path]
        in_prefix = True
        for pos, tagged in enumerate(tags):
            if tagged and not in_prefix:
                report.deleted_prefix = False
                report.notes.append(f"deleted node at position {pos} after live nodes")
            if not tagged:
                in_prefix = False
        for pos, marked in enumerate(incoming_marked):
            # Edge path[pos] -> path[pos+1]; marked iff the target is deleted.
            if pos + 1 < len(tags) and marked != tags[pos + 1]:
                report.deleted_prefix = False
                report.notes.append(
                    f"edge to position {pos + 1} mark bit disagrees with deletion tag")

        suffix = [idx for (idx, _, tagged) in path if not tagged]

        keys = [self.arena.item(i).key for i in suffix]
        for a, b in zip(keys, keys[1:]):
            assert a is not None and b is not None
            if not comes_before(a, b, end):
                report.suffix_sorted = False
                report.notes.append(f"suffix out of order: {a} !< {b}")

        if not arena.item(self._head[end].load()).marked_into[end]:
            report.head_deleted = False
            report.notes.append("head names a live node")

        self._audit_index(end, report)
        return report

    def _audit_index(self, end: int, report: "AuditReport") -> None:
        """Keys strictly ascend on every index level; a tower live on this
        end names an item linked into both lists and not deleted from this
        one; a towered item deleted from this list has this end's flag set."""
        slots = self.arena.slots
        dead_flag = "min_dead" if end == MIN else "max_dead"
        notes = []
        for level in range(LEVELS):
            towers = self.index_walk(level)
            if len(towers) > len(slots):
                notes.append(f"index level {level} exceeds arena size: cycle suspected")
            for a, b in zip(towers, towers[1:]):
                if not key_less(a.key, b.key):
                    notes.append(f"index level {level} out of order: {a.key} !< {b.key}")
            for tower in towers:
                if getattr(tower, dead_flag):
                    continue
                item = slots[tower.index]
                if item is POISONED:
                    notes.append(f"live tower names reclaimed item {tower.index}")
                elif not all(item.linked_into) or item.marked_into[end]:
                    notes.append(f"tower live on this end names item {tower.index}, "
                                 "which is not on both lists or is deleted from this one")
        for item in slots:
            if item is POISONED:
                continue
            tower = item.tower
            if tower is not None and not getattr(tower, dead_flag) and item.marked_into[end]:
                notes.append(f"deleted item {item.index} has a tower live on this end")
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
    deletes the logically deleted prefix behind it, otherwise inserts would
    wade through an ever-growing dead prefix.  This is the one place that
    sweeps.  Nodes it unlinks go to the reclaimer when one is attached.
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
        if self.reclaimer is not None:
            for index in removed:
                self.reclaimer.on_unlink(index)
        return got

    def pq_delete(self, index: int) -> bool:
        raise NotImplementedError("list-backed queue has no arbitrary delete")

    def contents(self) -> list[int]:
        return self.lists.suffix(self.end)

    def problems(self) -> list[str]:
        report = self.lists.audit(self.end)
        return [] if report.ok else [report.describe()]

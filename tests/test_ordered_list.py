"""The marked-link sorted lists: insertion, two-phase deletion, audits."""

import random

import pytest

from depq.atomics import AtomicCell
from depq.dual_depq import DualDepq
from depq.items import MAX, MIN, Arena, Key, try_reserve, unpack_link
from depq.ordered_list import ListPair, ListPq, comes_before
from depq.sched import ControlledScheduler, explore_interleavings


def make_pair():
    arena = Arena()
    return arena, ListPair(arena)


def insert_keys(arena, lists, keys):
    out = []
    for k in keys:
        idx = arena.new_item(k)
        lists.insert(idx)
        out.append(idx)
    return out


def extract_claimed(arena, lists, end):
    """Pop and claim as ``DualDepq``'s loop does, but without its sweep:
    nodes the other end has claimed are skipped."""
    while (got := lists.extract_first(end)) is not None:
        if try_reserve(arena.item(got)):
            return got
    return None


def walk_user_keys(lists, end):
    return [lists.arena.item(i).user_key
            for i in lists.walk(end) if i != lists.dummy]


# -- ordering relation ---------------------------------------------------------


def test_comes_before_min_is_plain_order():
    assert comes_before(Key(3, 0), Key(5, 1), MIN)
    assert not comes_before(Key(5, 1), Key(3, 0), MIN)


def test_comes_before_max_is_reversed():
    assert not comes_before(Key(3, 0), Key(5, 1), MAX)
    assert comes_before(Key(5, 1), Key(3, 0), MAX)


def test_comes_before_antisymmetric_across_ends():
    rng = random.Random(7)
    for _ in range(100_000):
        a = Key(rng.randrange(100), rng.randrange(10_000))
        b = Key(rng.randrange(100), rng.randrange(10_000))
        if a != b:
            assert comes_before(a, b, MIN) == comes_before(b, a, MAX)


# -- insertion -----------------------------------------------------------------


def test_insert_into_fresh_list():
    arena, lists = make_pair()
    insert_keys(arena, lists, [3])
    assert walk_user_keys(lists, MIN) == [3]


def test_insert_sequence_matches_sort_oracle():
    arena, lists = make_pair()
    insert_keys(arena, lists, [2, 4, 3])
    assert walk_user_keys(lists, MIN) == sorted([2, 4, 3])


def test_insert_into_max_list_matches_reverse_sort_oracle():
    arena, lists = make_pair()
    insert_keys(arena, lists, [4, 2])
    insert_keys(arena, lists, [3])
    assert walk_user_keys(lists, MAX) == sorted([4, 2, 3], reverse=True)


def test_random_inserts_match_sort_oracle_both_ends():
    rng = random.Random(99)
    for _ in range(50):
        arena, lists = make_pair()
        keys = [rng.randrange(40) for _ in range(rng.randrange(1, 30))]
        for k in keys:
            idx = arena.new_item(k)
            lists.insert(idx)
        assert walk_user_keys(lists, MIN) == sorted(keys)
        assert walk_user_keys(lists, MAX) == sorted(keys, reverse=True)
        assert lists.audit(MIN).ok and lists.audit(MAX).ok


# -- marking -------------------------------------------------------------------


def test_fetch_or_returns_prior_word_and_sets_bit():
    cell = AtomicCell(0b1010)
    assert cell.fetch_or(1) == 0b1010
    assert cell.load() == 0b1011


def test_fetch_or_idempotent_on_marked_word():
    cell = AtomicCell(0b1011)
    assert cell.fetch_or(1) == 0b1011
    assert cell.load() == 0b1011


def test_extract_first_reports_deleted_node():
    arena, lists = make_pair()
    (idx,) = insert_keys(arena, lists, [9])
    assert unpack_link(arena.item(lists.dummy).link[MIN].load()) == (idx, 0)
    assert lists.extract_first(MIN) == idx
    assert unpack_link(arena.item(lists.dummy).link[MIN].load()) == (idx, 1)
    assert arena.item(idx).marked_into[MIN]


def test_insert_racing_mark_explored_both_orders():
    # One thread logically deletes the first node, another inserts a smaller
    # key at the same edge.  Whichever operation lands first, the list stays
    # well-formed; when the insert loses, it retries past the mark and ends
    # up just after the deleted prefix.
    def factory():
        arena = Arena()
        lists = ListPair(arena)
        lists.insert(arena.new_item(10))
        new = arena.new_item(5)

        def inserter(_state):
            lists.insert(new)

        def extractor(_state):
            got = lists.extract_first(MIN)
            return arena.item(got).user_key

        return (arena, lists, new), [("ins", inserter), ("ex", extractor)]

    extracted = set()
    runs = 0
    for outcome in explore_interleavings(factory):
        runs += 1
        _arena, lists, new = outcome.state
        report = lists.audit(MIN)
        assert report.ok, report.describe()
        assert new in lists.walk(MIN)  # insert always lands
        extracted.add(outcome.results["ex"])
    # mark-first runs extract 10; insert-first runs extract the new 5
    assert extracted == {5, 10}
    assert runs >= 2


def test_extract_on_fresh_list_returns_empty():
    _, lists = make_pair()
    assert lists.extract_first(MIN) is None
    assert lists.extract_first(MAX) is None


def test_extract_without_reserve_advances_last_deleted():
    arena, lists = make_pair()
    one, two = insert_keys(arena, lists, [1, 2])
    got = lists.extract_first(MIN)
    assert got == one
    # Not swept: the head stays on the sentinel, whose word names the node,
    # marked; the node, now the prefix's last, keeps an unmarked word.
    assert lists.head(MIN) == lists.dummy
    assert unpack_link(arena.item(lists.dummy).link[MIN].load()) == (one, 1)
    assert unpack_link(arena.item(one).link[MIN].load()) == (two, 0)


def test_extract_skips_node_reserved_by_other_end():
    arena, lists = make_pair()
    one, two = insert_keys(arena, lists, [1, 2])
    dual = DualDepq(arena, ListPq(lists, MIN), ListPq(lists, MAX))
    assert arena.item(one).reserved.test_and_set() == 0  # claimed elsewhere
    assert dual.extract_min() == 2
    assert arena.item(one).marked_into[MIN]
    assert arena.item(two).marked_into[MIN]


# -- physical deletion ---------------------------------------------------------


def test_sweep_head_noop_when_nothing_deleted():
    arena, lists = make_pair()
    insert_keys(arena, lists, [1])
    assert lists.sweep_head(MIN) == []
    assert lists.head(MIN) == lists.dummy


def test_sweep_head_after_one_extract_removes_dummy_only():
    arena, lists = make_pair()
    one, _ = insert_keys(arena, lists, [1, 2])
    lists.extract_first(MIN)
    removed = lists.sweep_head(MIN)
    assert removed == [lists.dummy]
    assert lists.head(MIN) == one


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_sweep_head_after_k_extracts(k):
    # k pops with no sweep between them; each follows the marked chain from
    # the head, and one sweep then unlinks exactly k nodes.
    arena, lists = make_pair()
    nodes = insert_keys(arena, lists, range(1, k + 1))
    for node in nodes:
        assert lists.extract_first(MIN) == node
    assert lists.extract_first(MIN) is None
    removed = lists.sweep_head(MIN)
    assert removed == [lists.dummy] + nodes[:-1]
    assert lists.head(MIN) == nodes[-1]
    assert lists.suffix(MIN) == []
    assert lists.sweep_head(MIN) == []


# -- audits --------------------------------------------------------------------


def test_initial_audit_prefix_is_dummy_only():
    _, lists = make_pair()
    for end in (MIN, MAX):
        report = lists.audit(end)
        assert report.ok, report.describe()
        assert [idx for idx, _, tagged in report.path if tagged] == [lists.dummy]


def test_audit_passes_after_random_quiescent_op_sequences():
    rng = random.Random(31337)
    for _ in range(1000):
        arena, lists = make_pair()
        for _ in range(rng.randrange(12)):
            roll = rng.random()
            if roll < 0.55:
                idx = arena.new_item(rng.randrange(10))
                lists.insert(idx)
            else:
                end = MIN if roll < 0.8 else MAX
                extract_claimed(arena, lists, end)
                lists.sweep_head(end)
        for end in (MIN, MAX):
            report = lists.audit(end)
            assert report.ok, report.describe()


def test_strict_audit_with_frozen_pop():
    # A pop frozen between its mark and its head write, the one state it
    # leaves in between: the head is still the sentinel, the prefix's
    # second-last node, and the audit passes.
    arena, lists = make_pair()
    one, two = insert_keys(arena, lists, [1, 2])
    pq = ListPq(lists, MIN)
    with ControlledScheduler() as sched:
        sched.freeze("ex", "uh-write-head")
        sched.spawn("ex", pq.pq_extract_first)
        sched.start()
        sched.wait_frozen("ex")
        report = lists.audit(MIN)
        assert report.ok, report.describe()
        prefix = [idx for idx, _, tagged in report.path if tagged]
        assert prefix == [lists.dummy, one]
        assert lists.head(MIN) == prefix[-2]
        assert lists.suffix(MIN) == [two]
        sched.thaw("ex")
    assert sched.result("ex") == one
    assert lists.head(MIN) == one


def test_audit_quiescent_with_frozen_inserter_before_cas():
    arena, lists = make_pair()
    insert_keys(arena, lists, [1, 3])
    idx = arena.new_item(2)
    with ControlledScheduler() as sched:
        sched.freeze("ins", "ins-cas")
        sched.spawn("ins", lists.insert, idx)
        sched.start()
        sched.wait_frozen("ins")
        report = lists.audit(MIN)
        assert report.ok, report.describe()
        assert idx not in lists.walk(MIN)  # not yet published
        sched.thaw("ins")
    assert idx in lists.walk(MIN)


def test_marked_words_never_change_afterwards():
    rng = random.Random(5)
    arena, lists = make_pair()
    snapshots = {}
    for step in range(300):
        if rng.random() < 0.6:
            idx = arena.new_item(rng.randrange(30))
            lists.insert(idx)
        else:
            end = rng.choice((MIN, MAX))
            extract_claimed(arena, lists, end)
            if rng.random() < 0.3:
                lists.sweep_head(end)
        for (node, end), word in snapshots.items():
            assert arena.item(node).link[end].load() == word
        for end in (MIN, MAX):
            for node in lists.walk(end):
                word = arena.item(node).link[end].load()
                if word & 1:
                    snapshots[(node, end)] = word


def test_unreachable_nodes_were_all_marked():
    # Anything that vanished from a list's reachable set went through a
    # marking fetch-or first.
    rng = random.Random(6)
    arena, lists = make_pair()
    for _ in range(400):
        if rng.random() < 0.5:
            idx = arena.new_item(rng.randrange(25))
            lists.insert(idx)
        else:
            end = rng.choice((MIN, MAX))
            extract_claimed(arena, lists, end)
            lists.sweep_head(end)
    for end in (MIN, MAX):
        reachable = set(lists.walk(end))
        for i in arena.all_indices():
            item = arena.item(i)
            if item.linked_into[end] and i not in reachable:
                assert item.marked_into[end]


def test_insert_makes_progress_only_when_others_succeed():
    # Scripted lock-freedom accounting: every failed publish CAS of one
    # inserter coincides with another insert completing at the same edge.
    arena, lists = make_pair()
    slow_idx = arena.new_item(100)
    rounds = 4

    def slow(_state):
        lists.insert(slow_idx)

    def fast(_state):
        for k in range(1, rounds + 1):
            lists.insert(arena.new_item(k))

    sched = ControlledScheduler(stepping=True)
    with sched:
        sched.spawn("slow", slow, None)
        sched.spawn("fast", fast, None)
        sched.start()
        completed_between = 0
        for _ in range(rounds):
            sched.run_until("slow", "ins-cas")   # poised with a stale expected word
            before = lists.insert_cas_failures
            sched.run_until("fast", "ins-cas")
            sched.grant("fast")                  # fast publishes first
            sched.run_until("fast", "ins-cas")   # then on the descending list,
            sched.grant("fast")                  # away from slow's edge
            sched.wait_quiescent()
            completed_between += 1
            sched.grant("slow")                  # slow's publish now fails
            sched.run_until("slow", "ins-cas")   # it retraverses and re-poises
            after = lists.insert_cas_failures
            assert after == before + 1
        sched.run_to_completion("slow")
        sched.run_to_completion("fast")
    assert lists.insert_cas_failures == rounds
    assert completed_between == rounds
    assert walk_user_keys(lists, MIN) == sorted([100] + list(range(1, rounds + 1)))

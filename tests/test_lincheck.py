"""History recording, serialization, and the linearizability checker.

The checker is itself checked: a brute-force enumerator with no memoization
and no pruning beyond real-time order re-decides every small history, and
the two must always agree.
"""

import random
import threading
import tracemalloc

import pytest

from helpers import ev, join_threads, naive_check, random_history, run_on_plain_threads

from depq.lincheck import (EMPTY, Event, Recorder, Verdict, _assert_witness,
                           check, read_history, validate_history, write_history)


# -- recorder -------------------------------------------------------------------


def test_recorder_sequential_history_is_well_formed():
    rec = Recorder()
    wrapped = rec.wrap(_Scripted({"extract_min": [5]}))
    wrapped.insert(5)
    wrapped.extract_min()
    events = rec.snapshot()
    assert [e.kind for e in events] == ["Insert", "ExtractMin"]
    stamps = [events[0].invoke, events[0].response,
              events[1].invoke, events[1].response]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == 4
    assert events[1].result == 5
    validate_history(events)


class _Scripted:
    """A fake queue returning scripted results."""

    def __init__(self, script):
        self.script = {k: list(v) for k, v in script.items()}

    def insert(self, key):
        pass

    def extract_min(self):
        vals = self.script.get("extract_min", [])
        return vals.pop(0) if vals else None

    def extract_max(self):
        vals = self.script.get("extract_max", [])
        return vals.pop(0) if vals else None


def test_recorder_marks_empty_extractions():
    rec = Recorder()
    wrapped = rec.wrap(_Scripted({}))
    assert wrapped.extract_max() is None
    (event,) = rec.snapshot()
    assert event.result == EMPTY


def test_recorder_overlapping_threads_interleave_stamps():
    rec = Recorder()
    wrapped = rec.wrap(_Scripted({"extract_min": [1, 2]}))
    barrier = threading.Barrier(2)

    def worker():
        barrier.wait()
        wrapped.extract_min()

    run_on_plain_threads(worker, worker)
    events = rec.snapshot()
    assert len(events) == 2
    assert {e.thread for e in events} == {0, 1}
    validate_history(events)


def test_recorder_retains_pending_operation():
    rec = Recorder()
    started = threading.Event()
    release = threading.Event()

    class Blocking:
        def insert(self, key):
            started.set()
            release.wait()

    wrapped = rec.wrap(Blocking())
    t = threading.Thread(target=wrapped.insert, args=(9,), daemon=True)
    t.start()
    assert started.wait(timeout=10.0)
    snap = rec.snapshot()
    assert len(snap) == 1 and snap[0].response is None and snap[0].result is None
    release.set()
    join_threads([t])


def test_recorder_snapshot_copies_each_event():
    """A pending event stays pending in the copy, and a copy changed later
    (as ``finish`` changes a live event) leaves the recorder's own alone."""
    rec = Recorder()
    done = rec.begin("Insert", 4)
    rec.finish(done, None)
    pending = rec.begin("ExtractMin", None)
    snap = rec.snapshot()
    assert snap == [done, pending] and not snap[1].completed
    assert snap[0] is not done and snap[1] is not pending
    snap[0].arg = 5
    snap[1].result, snap[1].response = 4, 99
    assert (done.arg, pending.result, pending.response) == (4, None, None)
    assert rec.snapshot() == [done, pending]


# -- serialization ---------------------------------------------------------------


def test_history_file_roundtrip_is_byte_identical(tmp_path):
    events = [
        ev(0, "Insert", 5, None, 0, 1),
        ev(1, "ExtractMin", None, 5, 2, 5),
        ev(2, "ExtractMax", None, EMPTY, 3, 4),
        ev(3, "ExtractMin", None, None, 6, None),
    ]
    path = tmp_path / "h.jsonl"
    write_history(events, str(path))
    first = path.read_bytes()
    loaded = read_history(str(path))
    assert loaded == events
    write_history(loaded, str(path))
    assert path.read_bytes() == first


def test_malformed_history_rejected():
    with pytest.raises(ValueError):
        validate_history([ev(0, "Insert", None, None, 0, 1)])
    with pytest.raises(ValueError):
        validate_history([ev(0, "ExtractMin", None, 1, 3, 2)])
    with pytest.raises(ValueError):  # same thread, overlapping ops
        validate_history([ev(0, "ExtractMin", None, None, 0, None),
                          ev(0, "Insert", 1, None, 1, 2)])
    with pytest.raises(ValueError):  # duplicate stamps
        validate_history([ev(0, "Insert", 1, None, 0, 1),
                          ev(1, "Insert", 2, None, 1, 2)])


# -- checker on hand-built histories ---------------------------------------------


def test_sequential_history_linearizable_with_recorded_order():
    events = [
        ev(0, "Insert", 3, None, 0, 1),
        ev(0, "ExtractMin", None, 3, 2, 3),
        ev(0, "ExtractMax", None, EMPTY, 4, 5),
    ]
    result = check(events)
    assert result.verdict is Verdict.LINEARIZABLE
    assert result.witness == [0, 1, 2]


def test_same_end_consumer_race_is_rejected():
    # Two overlapped min-extractions plus one later max-extraction: the pair
    # (min -> 2, then max -> 1 after it finished) has no sequential
    # explanation over {1, 2} when the third extraction never completed.
    events = [
        ev(0, "Insert", 1, None, 0, 1),
        ev(0, "Insert", 2, None, 2, 3),
        ev(1, "ExtractMin", None, None, 4, None),   # asleep forever
        ev(2, "ExtractMin", None, 2, 5, 6),
        ev(3, "ExtractMax", None, 1, 7, 8),
    ]
    result = check(events)
    assert result.verdict is Verdict.NOT_LINEARIZABLE
    assert naive_check(events) is False


def test_overlapping_extracts_at_both_ends_are_fine():
    events = [
        ev(0, "Insert", 1, None, 0, 1),
        ev(0, "Insert", 2, None, 2, 3),
        ev(1, "ExtractMin", None, 1, 4, 7),
        ev(2, "ExtractMax", None, 2, 5, 6),
    ]
    result = check(events)
    assert result.verdict is Verdict.LINEARIZABLE


def test_pending_insert_may_be_taken_or_dropped():
    # An extract returns 7 even though the insert of 7 never completed: the
    # pending insert must be linearized before it.
    events = [
        ev(0, "Insert", 7, None, 0, None),
        ev(1, "ExtractMin", None, 7, 1, 2),
    ]
    assert check(events).verdict is Verdict.LINEARIZABLE
    # ... and a pending insert can also be ignored entirely.
    events = [
        ev(0, "Insert", 7, None, 0, None),
        ev(1, "ExtractMin", None, EMPTY, 1, 2),
    ]
    assert check(events).verdict is Verdict.LINEARIZABLE


def test_real_time_order_is_respected():
    # extract-min sees empty strictly after an insert completed: impossible.
    events = [
        ev(0, "Insert", 1, None, 0, 1),
        ev(1, "ExtractMin", None, EMPTY, 2, 3),
    ]
    assert check(events).verdict is Verdict.NOT_LINEARIZABLE
    # overlapping instead: fine, the empty answer linearizes first.
    events = [
        ev(0, "Insert", 1, None, 0, 3),
        ev(1, "ExtractMin", None, EMPTY, 1, 2),
    ]
    assert check(events).verdict is Verdict.LINEARIZABLE


def test_budget_exhaustion_is_distinct():
    # Nine fully overlapping completed inserts force a real search.
    events = [ev(t, "Insert", t, None, t, 100 + t) for t in range(9)]
    result = check(events, state_budget=5)
    assert result.verdict is Verdict.SEARCH_BUDGET_EXCEEDED
    assert check(events).verdict is Verdict.LINEARIZABLE


def test_initial_keys_seed_the_oracle():
    events = [ev(0, "ExtractMin", None, 4, 0, 1)]
    assert check(events).verdict is Verdict.NOT_LINEARIZABLE
    assert check(events, initial_keys=(4, 9)).verdict is Verdict.LINEARIZABLE


def test_long_history_needs_no_cap():
    events = [ev(0, "Insert", k, None, 2 * k, 2 * k + 1) for k in range(10**4)]
    result = check(events)
    assert result.verdict is Verdict.LINEARIZABLE
    assert result.witness == list(range(10**4))


def test_budget_bounds_time_and_memory_at_any_width():
    # 2000 threads of one insert each, all overlapping: every state of the
    # search is charged 2000, so the default budget stops it early.
    n = 2000
    events = [ev(t, "Insert", t, None, t, 10 * n + t) for t in range(n)]
    tracemalloc.start()
    try:
        result = check(events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.verdict is Verdict.SEARCH_BUDGET_EXCEEDED
    assert peak < 50 * 2**20


def test_overlapping_operations_of_one_thread_rejected():
    # Both completed: the thread's second operation began before its first
    # one returned.
    events = [ev(0, "Insert", 0, None, 0, 3),
              ev(0, "ExtractMin", None, 0, 1, 2)]
    with pytest.raises(ValueError, match="overlapping"):
        check(events)


def test_witness_check_catches_a_real_time_violation():
    events = [ev(0, "Insert", 1, None, 0, 1),
              ev(1, "Insert", 2, None, 2, 3)]
    _assert_witness(events, [0, 1], ())
    with pytest.raises(AssertionError, match="real-time"):
        _assert_witness(events, [1, 0], ())


# -- checker vs naive enumerator -------------------------------------------------


def test_long_sequential_history_needs_no_recursion():
    # 1500 levels of search, more than the default recursion limit allows a
    # recursive search.
    events = [ev(0, "Insert", k, None, 2 * k, 2 * k + 1) for k in range(1500)]
    result = check(events)
    assert result.verdict is Verdict.LINEARIZABLE
    assert result.witness == list(range(1500))


def test_checker_agrees_with_naive_enumerator_on_corpus():
    rng = random.Random(20240811)
    disagreements = []
    for trial in range(400):
        events = random_history(rng, mutate=(trial % 3 == 0))
        try:
            validate_history(events)
        except ValueError:
            continue
        fast = check(events)
        assert fast.verdict is not Verdict.SEARCH_BUDGET_EXCEEDED
        slow = naive_check(events)
        if (fast.verdict is Verdict.LINEARIZABLE) != slow:
            disagreements.append((trial, events))
    assert not disagreements


def test_witness_is_replay_validated():
    # The checker re-runs every witness through the oracle before returning
    # it, so a LINEARIZABLE verdict always carries a valid order.
    rng = random.Random(7)
    for _ in range(100):
        events = random_history(rng)
        try:
            validate_history(events)
        except ValueError:
            continue
        result = check(events)
        if result.verdict is Verdict.LINEARIZABLE:
            assert result.witness is not None
            completed = {i for i, e in enumerate(events) if e.completed}
            assert completed.issubset(set(result.witness))

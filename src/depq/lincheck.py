"""History recording and linearizability checking.

A recorded history is a list of :class:`Event` rows: one per operation
invocation, stamped from a global fetch-increment clock immediately before
the call and immediately after the return.  The clock over-approximates
real time conservatively: if it says one operation finished before another
began, that is certainly true.

``check`` decides whether a history is explainable as some total order of
its operations that respects that real-time order and reproduces every
completed operation's recorded result when replayed through the sequential
semantics.  Operations still pending at the end of the history may be
placed anywhere consistent with their invocation, or left out entirely.
The search is depth-first, over an explicit stack, with memoization on (set
of placed operations, multiset of keys currently stored); a state budget
turns pathological histories into an explicit inconclusive verdict rather
than a hang.
"""

from __future__ import annotations

import enum
import json
import threading
from dataclasses import asdict, dataclass, replace

from .atomics import AtomicCell

#: Recorded result of an extraction that found the structure empty.
EMPTY = "NONE"

KINDS = ("Insert", "ExtractMin", "ExtractMax")


@dataclass
class Event:
    thread: int
    kind: str                    # one of KINDS
    arg: int | None              # inserted key, None for extracts
    result: int | str | None     # key, EMPTY, or None (insert / still pending)
    invoke: int
    response: int | None         # None while pending

    @property
    def completed(self) -> bool:
        return self.response is not None

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "Event":
        row = json.loads(line)
        if row["kind"] not in KINDS:
            raise ValueError(f"unknown kind {row['kind']!r}")
        return Event(thread=row["thread"], kind=row["kind"], arg=row["arg"],
                     result=row["result"], invoke=row["invoke"],
                     response=row["response"])


def write_history(events: list[Event], path: str) -> None:
    with open(path, "w") as fh:
        for ev in events:
            fh.write(ev.to_json() + "\n")


def read_history(path: str) -> list[Event]:
    with open(path) as fh:
        return [Event.from_json(line) for line in fh if line.strip()]


class Recorder:
    """Wraps a queue so every operation emits a timestamped event."""

    def __init__(self) -> None:
        self._clock = AtomicCell(0)
        self._lock = threading.Lock()
        self._events: list[Event] = []
        self._thread_ids: dict[int, int] = {}

    def _thread_id(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._thread_ids.setdefault(ident, len(self._thread_ids))

    def begin(self, kind: str, arg: int | None) -> Event:
        ev = Event(thread=self._thread_id(), kind=kind, arg=arg, result=None,
                   invoke=self._clock.fetch_add(1), response=None)
        with self._lock:
            self._events.append(ev)
        return ev

    def finish(self, ev: Event, result: int | str | None) -> None:
        ev.result = result
        ev.response = self._clock.fetch_add(1)

    def wrap(self, depq) -> "RecordedDepq":
        return RecordedDepq(depq, self)

    def snapshot(self) -> list[Event]:
        """A consistent copy; events still pending stay pending in the copy."""
        with self._lock:
            return [replace(ev) for ev in self._events]


class RecordedDepq:
    def __init__(self, depq, recorder: Recorder):
        self._depq = depq
        self._rec = recorder

    def insert(self, user_key: int) -> None:
        ev = self._rec.begin("Insert", user_key)
        self._depq.insert(user_key)
        self._rec.finish(ev, None)

    def extract_min(self) -> int | None:
        ev = self._rec.begin("ExtractMin", None)
        out = self._depq.extract_min()
        self._rec.finish(ev, EMPTY if out is None else out)
        return out

    def extract_max(self) -> int | None:
        ev = self._rec.begin("ExtractMax", None)
        out = self._depq.extract_max()
        self._rec.finish(ev, EMPTY if out is None else out)
        return out


class Verdict(enum.Enum):
    LINEARIZABLE = "LINEARIZABLE"
    NOT_LINEARIZABLE = "NOT_LINEARIZABLE"
    SEARCH_BUDGET_EXCEEDED = "SEARCH_BUDGET_EXCEEDED"


@dataclass
class CheckResult:
    verdict: Verdict
    witness: list[int] | None        # event positions in linearization order
    states_explored: int

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.LINEARIZABLE


def validate_history(events: list[Event]) -> None:
    """Reject structurally malformed histories before searching."""
    pending: dict[int, int] = {}
    stamps: list[int] = []
    for pos, ev in enumerate(events):
        if ev.kind not in KINDS:
            raise ValueError(f"event {pos}: unknown kind {ev.kind!r}")
        if ev.kind == "Insert" and ev.arg is None:
            raise ValueError(f"event {pos}: insert without a key")
        if ev.response is not None and ev.response <= ev.invoke:
            raise ValueError(f"event {pos}: response not after invocation")
        if ev.thread in pending:
            raise ValueError(
                f"thread {ev.thread} has overlapping operations "
                f"(events {pending[ev.thread]} and {pos})")
        if ev.response is None:
            pending[ev.thread] = pos
        stamps.append(ev.invoke)
        if ev.response is not None:
            stamps.append(ev.response)
    if len(set(stamps)) != len(stamps):
        raise ValueError("timestamps are not globally unique")


def _op_of(ev: Event) -> tuple:
    return (ev.kind, ev.arg)


def _expected(ev: Event):
    # Oracle returns None for an empty extraction; the log records EMPTY.
    if ev.kind == "Insert":
        return None
    return None if ev.result == EMPTY else ev.result


def check(events: list[Event], *, max_completed: int = 20,
          state_budget: int = 500_000,
          initial_keys: tuple = ()) -> CheckResult:
    """Decide linearizability of a recorded history.

    ``initial_keys`` seeds the oracle for histories over a prefilled
    structure whose prefill was not recorded.
    """
    validate_history(events)
    n = len(events)
    completed_mask = 0
    for pos, ev in enumerate(events):
        if ev.completed:
            completed_mask |= 1 << pos
    if completed_mask.bit_count() > max_completed:
        raise ValueError(f"history has more than {max_completed} completed operations")

    # preds[i]: completed operations that certainly finished before i began.
    preds = [0] * n
    for i, ev in enumerate(events):
        for j, other in enumerate(events):
            if other.completed and other.response < ev.invoke:
                preds[i] |= 1 << j

    from bisect import insort

    keys = sorted(initial_keys)
    order: list[int] = []

    def children(chosen: int):
        """Place each operation that may go next, in event order: yield the
        new set of placed operations with ``keys`` and ``order`` updated,
        and undo the placement when resumed."""
        for i in range(n):
            bit = 1 << i
            if chosen & bit or (preds[i] & chosen) != preds[i]:
                continue
            ev = events[i]
            kind = ev.kind
            if kind == "Insert":
                insort(keys, ev.arg)
                order.append(i)
                yield chosen | bit
                order.pop()
                keys.remove(ev.arg)
                continue
            popped = None
            if keys:
                popped = keys.pop(0) if kind == "ExtractMin" else keys.pop()
            if not ev.completed or popped == _expected(ev):
                order.append(i)
                yield chosen | bit
                order.pop()
            if popped is not None:
                insort(keys, popped)

    # Depth-first search with an explicit stack of open states, so a long
    # history cannot exhaust the interpreter's recursion limit.  Each open
    # state holds its memo key and the generator of its remaining children;
    # a state whose children are all exhausted is memoized as failed.
    states = 0
    failed: set[tuple[int, tuple]] = set()
    stack: list[tuple[tuple[int, tuple], object]] = []
    chosen = 0
    found = False
    while True:
        if chosen & completed_mask == completed_mask:
            found = True
            break
        digest = (chosen, tuple(keys))
        if digest not in failed:
            states += 1
            if states > state_budget:
                return CheckResult(Verdict.SEARCH_BUDGET_EXCEEDED, None, states)
            stack.append((digest, children(chosen)))
        while stack:
            chosen = next(stack[-1][1], 0)   # 0: no child left
            if chosen:
                break
            failed.add(stack.pop()[0])
        else:
            break
    if not found:
        return CheckResult(Verdict.NOT_LINEARIZABLE, None, states)
    _assert_witness(events, order, initial_keys)
    return CheckResult(Verdict.LINEARIZABLE, order, states)


def _assert_witness(events: list[Event], order: list[int], initial_keys: tuple) -> None:
    """Replay a found witness through a fresh oracle; it must reproduce every
    completed result and respect real-time precedence."""
    from .oracle import SeqDepq, seq_apply

    state = SeqDepq(initial_keys)
    for i in order:
        _, result = seq_apply(state, _op_of(events[i]))
        if events[i].completed and events[i].kind != "Insert":
            assert result == _expected(events[i]), "witness replay mismatch"
    for a_pos, a in enumerate(order):
        for b in order[a_pos + 1:]:
            resp = events[b].response
            assert resp is None or resp >= events[a].invoke, \
                "witness violates real-time order"
    placed = {i for i in order}
    for i, ev in enumerate(events):
        assert not ev.completed or i in placed, "witness dropped a completed operation"

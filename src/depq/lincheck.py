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
The depth-first search places each thread's operations in order, so its
state is how many of each thread's operations are placed plus what each
placed pending extraction took.  That fixes the stored keys, so it is an
exact memo key.  Each new state is charged its thread count against one
state budget, which bounds time and memory and turns a pathological
history into an explicit inconclusive verdict rather than a hang.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import threading
from bisect import insort
from dataclasses import asdict, dataclass

from .oracle import SeqDepq, seq_apply

#: Recorded result of an extraction that found the structure empty.
EMPTY = "NONE"

KINDS = ("Insert", "ExtractMin", "ExtractMax")

# The response stamp of an operation that never responds.
_NEVER = math.inf

#: Each int field of a history line, and what else it may hold.
_INT_FIELDS = {"thread": (), "arg": (None,), "result": (EMPTY, None),
               "invoke": (), "response": (None,)}


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
        """Parse one history line; ``ValueError`` names a missing or bad field."""
        row = json.loads(line)
        if not isinstance(row, dict):
            raise ValueError(f"not a JSON object: {line.strip()!r}")
        if row.get("kind") not in KINDS:
            raise ValueError(f"field 'kind' is missing or unknown: {row.get('kind')!r}")
        for name, also in _INT_FIELDS.items():
            if name not in row:
                raise ValueError(f"field {name!r} is missing")
            if type(row[name]) is not int and row[name] not in also:
                raise ValueError(f"field {name!r} holds {row[name]!r}")
        return Event(kind=row["kind"], **{name: row[name] for name in _INT_FIELDS})


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
        self._clock = itertools.count()   # ``next`` is atomic under the GIL
        self._lock = threading.Lock()
        self._events: list[Event] = []
        self._thread_ids: dict[int, int] = {}

    def _thread_id(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._thread_ids.setdefault(ident, len(self._thread_ids))

    def begin(self, kind: str, arg: int | None) -> Event:
        ev = Event(thread=self._thread_id(), kind=kind, arg=arg, result=None,
                   invoke=next(self._clock), response=None)
        with self._lock:
            self._events.append(ev)
        return ev

    def finish(self, ev: Event, result: int | str | None) -> None:
        ev.result = result
        ev.response = next(self._clock)

    def wrap(self, depq) -> "RecordedDepq":
        return RecordedDepq(depq, self)

    def snapshot(self) -> list[Event]:
        """A consistent copy; events still pending stay pending in the copy."""
        with self._lock:
            return [Event(ev.thread, ev.kind, ev.arg, ev.result, ev.invoke, ev.response)
                    for ev in self._events]


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


def validate_history(events: list[Event]) -> list[list[int]]:
    """Reject structurally malformed histories before searching; return
    each thread's event positions in invocation order."""
    stamps: list[int] = []
    lines: dict[int, list[int]] = {}
    for invoke, pos in sorted((ev.invoke, pos) for pos, ev in enumerate(events)):
        ev = events[pos]
        if ev.kind not in KINDS:
            raise ValueError(f"event {pos}: unknown kind {ev.kind!r}")
        if ev.kind == "Insert" and ev.arg is None:
            raise ValueError(f"event {pos}: insert without a key")
        if ev.response is not None and ev.response <= invoke:
            raise ValueError(f"event {pos}: response not after invocation")
        stamps.append(invoke)
        if ev.response is not None:
            stamps.append(ev.response)
        line = lines.setdefault(ev.thread, [])
        prior = events[line[-1]].response if line else -_NEVER
        if prior is None or prior > invoke:
            raise ValueError(f"thread {ev.thread} has overlapping operations "
                             f"(events {line[-1]} and {pos})")
        line.append(pos)
    if len(set(stamps)) != len(stamps):
        raise ValueError("timestamps are not globally unique")
    return list(lines.values())


def _expected(ev: Event):
    # Oracle returns None for an empty extraction; the log records EMPTY.
    if ev.kind == "Insert":
        return None
    return None if ev.result == EMPTY else ev.result


def check(events: list[Event], *, state_budget: int = 500_000,
          initial_keys: tuple = ()) -> CheckResult:
    """Decide linearizability of a recorded history.

    ``initial_keys`` seeds the oracle for histories over a prefilled
    structure whose prefill was not recorded.  Each new state is charged
    the history's thread count, and the search passes through at least
    one new state per operation it places.  So under the default budget a
    4-thread history of more than 125,000 operations always ends
    ``SEARCH_BUDGET_EXCEEDED``, even one that never backtracks; a longer
    run is checked in segments split at quiescent cuts.
    """
    lines = validate_history(events)
    width = len(lines)
    # Per thread: event positions and responses, closed by an "all placed" sentinel.
    line_ops = [line + [None] for line in lines]
    line_resp = [[_NEVER if events[i].response is None else events[i].response
                  for i in line] + [_NEVER] for line in lines]

    keys = sorted(initial_keys)
    order: list[int] = []
    placed = [0] * width        # per thread: how many operations are placed
    took = [None] * width       # per thread: what its placed pending extraction took

    def children(horizon):
        """Place each thread's next operation if it was invoked before
        ``horizon``: yield with the search state updated, and undo the
        placement when resumed."""
        for t, ops in enumerate(line_ops):
            i = ops[placed[t]]
            if i is None or events[i].invoke > horizon:
                continue
            ev = events[i]
            popped = None
            if ev.kind == "Insert":
                insort(keys, ev.arg)
            elif keys:
                popped = keys.pop(0) if ev.kind == "ExtractMin" else keys.pop()
            # An insert expects None, which is also what it popped.
            if not ev.completed or popped == _expected(ev):
                placed[t] += 1
                if not ev.completed:
                    took[t] = popped
                order.append(i)
                yield True
                order.pop()
                took[t] = None
                placed[t] -= 1
            if ev.kind == "Insert":
                keys.remove(ev.arg)
            elif popped is not None:
                insort(keys, popped)

    # Depth-first search with an explicit stack of open states, so a long
    # history cannot exhaust the interpreter's recursion limit.  Two
    # parallel stacks hold each open state's memo key and the generator of
    # its remaining children; a state whose children are all exhausted is
    # memoized as failed.  The memo key is one flat tuple, and no tuple
    # pairs it with its generator: every object an open state keeps alive
    # adds to the cyclic collector's work on a deep search.
    states = 0
    failed: set[tuple] = set()
    open_digests: list[tuple] = []
    open_children: list = []
    while True:
        # The earliest response among the unplaced completed operations:
        # within a thread, the next operation responds first.
        horizon = min(map(list.__getitem__, line_resp, placed), default=_NEVER)
        if horizon == _NEVER:   # every completed operation is placed
            break
        digest = (*placed, *took)
        if digest not in failed:
            states += width
            if states > state_budget:
                return CheckResult(Verdict.SEARCH_BUDGET_EXCEEDED, None, states)
            open_digests.append(digest)
            open_children.append(children(horizon))
        while open_children:
            if next(open_children[-1], False):
                break
            open_children.pop()
            failed.add(open_digests.pop())
        else:
            return CheckResult(Verdict.NOT_LINEARIZABLE, None, states)
    _assert_witness(events, order, initial_keys)
    return CheckResult(Verdict.LINEARIZABLE, order, states)


def _assert_witness(events: list[Event], order: list[int], initial_keys: tuple) -> None:
    """Replay a found witness through a fresh oracle; it must reproduce every
    completed result and respect real-time precedence."""
    state = SeqDepq(initial_keys)
    latest_invoke = -_NEVER
    for i in order:
        ev = events[i]
        _, result = seq_apply(state, (ev.kind, ev.arg))
        if ev.completed:
            assert result == _expected(ev), "witness replay mismatch"
        # Nothing placed earlier may have been invoked after this responded.
        assert ev.response is None or ev.response >= latest_invoke, \
            "witness violates real-time order"
        latest_invoke = max(latest_invoke, ev.invoke)
    placed = set(order)
    for i, ev in enumerate(events):
        assert not ev.completed or i in placed, "witness dropped a completed operation"

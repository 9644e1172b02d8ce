"""Layer microbenchmarks of ``lincheck.check``, by history length.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

Every history is built untimed from a fixed seed by simulating a correct
queue: each operation takes effect on a ``SeqDepq`` at a random step
between its invocation and its response, so the history is linearizable
and the operations of different threads overlap.  ``window`` has the shape
of one ``depq stress`` window: three prefill inserts, then nine operations
over four threads.  ``sequential`` is 1500 inserts on one thread.
``threads4`` is 4000 operations over four threads, after a prefill of 50.
Only the public API is used.
"""

import itertools
import random

import pytest

from depq.lincheck import EMPTY, Event, Verdict, check
from depq.oracle import SeqDepq

KEYS = 1000


def simulated(seed: int, threads: int, ops: int, prefill: int) -> list[Event]:
    """A linearizable history: ``prefill`` inserts on thread 0, then
    ``ops`` operations on threads 1..``threads``."""
    rng = random.Random(seed)
    state = SeqDepq()
    clock = itertools.count()
    events = []
    for _ in range(prefill):
        key = rng.randrange(KEYS)
        state.insert(key)
        events.append(Event(0, "Insert", key, None, next(clock), next(clock)))
    busy: dict[int, Event] = {}     # thread -> its operation in flight
    applied: set[int] = set()       # threads whose operation took effect
    started = 0
    while started < ops or busy:
        t = rng.randrange(1, threads + 1)
        ev = busy.get(t)
        if ev is None:
            if started < ops:
                started += 1
                kind = rng.choice(("Insert", "Insert", "ExtractMin", "ExtractMax"))
                arg = rng.randrange(KEYS) if kind == "Insert" else None
                busy[t] = Event(t, kind, arg, None, next(clock), None)
                events.append(busy[t])
        elif t not in applied:
            applied.add(t)
            if ev.kind == "Insert":
                state.insert(ev.arg)
            else:
                got = state.extract_min() if ev.kind == "ExtractMin" else state.extract_max()
                ev.result = EMPTY if got is None else got
        else:
            ev.response = next(clock)
            applied.discard(t)
            del busy[t]
    return events


HISTORIES = {
    "window": lambda: simulated(1, threads=4, ops=9, prefill=3),
    "sequential": lambda: [Event(0, "Insert", k, None, 2 * k, 2 * k + 1)
                           for k in range(1500)],
    "threads4": lambda: simulated(2, threads=4, ops=4000, prefill=50),
}


@pytest.mark.parametrize("name", list(HISTORIES))
def test_check(benchmark, name):
    events = HISTORIES[name]()
    result = benchmark(check, events)
    assert result.verdict is Verdict.LINEARIZABLE

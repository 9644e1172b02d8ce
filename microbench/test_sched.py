"""Layer microbenchmark of the stepping scheduler's handoff.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_step`` times one stepping-mode step: a ``grant`` to one of two
parked workers, which runs to its next pause site and parks again, and the
driver's ``wait_quiescent`` that sees it parked.  Each worker pauses at a
bare ``checkpoint`` in a loop, so the step holds no work of its own; the
two workers are granted in turn.  ``test_lock_round_trip`` is the floor it
compares against: one round trip between the timing thread and one other
thread over two bare ``threading.Lock`` batons.  Each test starts at most
two threads and stops them before it returns.
"""

import itertools
import threading

from depq.atomics import checkpoint
from depq.sched import ControlledScheduler

ROUNDS = 20_000


def test_step(benchmark):
    stop = False

    def worker():
        while not stop:
            checkpoint("step")

    sched = ControlledScheduler(stepping=True, step_limit=10**9)
    with sched:
        sched.spawn("a", worker)
        sched.spawn("b", worker)
        sched.start()
        assert sched.wait_quiescent() == ("a", "b")
        names = itertools.cycle(("a", "b"))

        def step():
            sched.grant(next(names))
            return sched.wait_quiescent()

        assert benchmark.pedantic(step, rounds=ROUNDS, warmup_rounds=200) == ("a", "b")
        stop = True    # the scheduler's exit releases both workers


def test_lock_round_trip(benchmark):
    ping, pong = threading.Lock(), threading.Lock()
    ping.acquire()
    pong.acquire()
    stop = False

    def echo():
        while True:
            ping.acquire()
            if stop:
                return
            pong.release()

    thread = threading.Thread(target=echo, daemon=True)
    thread.start()

    def round_trip():
        ping.release()
        pong.acquire()

    benchmark.pedantic(round_trip, rounds=ROUNDS, warmup_rounds=200)
    stop = True
    ping.release()
    thread.join(timeout=10)
    assert not thread.is_alive()

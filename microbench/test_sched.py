"""Layer microbenchmark of the controlled scheduler's handoff.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_step`` times one scripted step: a ``grant`` to one
of two parked workers, which runs to its next pause site and parks again,
and the driver's ``wait_quiescent`` that sees it parked, two thread
switches.  ``test_driven_step`` times the steps of ``drive``, where the
worker that parks grants the next step itself, one thread switch.  A round
is one ``drive`` over two fresh workers of ``DRIVEN_STEPS // 2`` pauses
each, spawned and parked before the clock starts; the alternating chooser
makes every step switch threads.  Divide the round time by
``DRIVEN_STEPS``; a timed run records the median step in ``extra_info``
as ``us_per_step``.  In both tests each worker pauses at a bare
``checkpoint`` in a loop, so a step holds no work of its own.
``test_lock_round_trip`` is the floor they compare against: one round trip
between the timing thread and one other thread over two bare
``threading.Lock`` batons.  No test has more than two threads of its own
alive at a time, and each stops them before it returns.
"""

import itertools
import threading

from depq.atomics import checkpoint
from depq.sched import ControlledScheduler

ROUNDS = 20_000
DRIVEN_STEPS = 200


def test_step(benchmark):
    stop = False

    def worker():
        while not stop:
            checkpoint("step")

    sched = ControlledScheduler(step_limit=10**9)
    with sched:
        sched.spawn("a", worker)
        sched.spawn("b", worker)
        assert sched.wait_quiescent() == ("a", "b")
        names = itertools.cycle(("a", "b"))

        def step():
            sched.grant(next(names))
            return sched.wait_quiescent()

        assert benchmark.pedantic(step, rounds=ROUNDS, warmup_rounds=200) == ("a", "b")
        stop = True    # the scheduler's exit releases both workers


def test_driven_step(benchmark):
    def worker():
        for _ in range(DRIVEN_STEPS // 2):
            checkpoint("step")

    turn = 0

    def alternate(runnable):
        nonlocal turn
        turn += 1
        return runnable[turn % len(runnable)]

    sched = ControlledScheduler(step_limit=10**9)
    rounds = itertools.count()

    def park_two_workers():
        n = next(rounds)
        sched.spawn(f"a{n}", worker)
        sched.spawn(f"b{n}", worker)
        assert len(sched.wait_quiescent()) == 2

    def steps():
        return len(sched.drive(alternate))

    with sched:
        done = benchmark.pedantic(steps, setup=park_two_workers,
                                  rounds=ROUNDS // DRIVEN_STEPS, warmup_rounds=2)
        assert done == DRIVEN_STEPS
    if benchmark.stats is not None:     # None under --benchmark-disable
        benchmark.extra_info["us_per_step"] = benchmark.stats.stats.median / DRIVEN_STEPS * 1e6


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

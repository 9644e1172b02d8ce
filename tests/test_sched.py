"""The controlled scheduler itself: stepping, walks, exploration; and the
pause schedule it drives through each build."""

import hashlib
import random
import sys
import threading
import time

import pytest
from helpers import join_threads, run_on_plain_threads

from depq import atomics
from depq import sched as sched_module
from depq.atomics import checkpoint
from depq.combining import COMBINING, TWO_LOCKS, make_serializer
from depq.reclaim import DEFERRED, EPOCH
from depq.sched import (ControlledScheduler, ScheduleError,
                        explore_interleavings, random_walk)
from depq.workload import WorkloadConfig, run_stress


class Word:
    """A shared word kept as :mod:`depq.atomics` sets out: a plain value,
    whose sited access is ``checkpoint`` and then the plain read or write,
    and whose read-modify-write runs under a lock."""

    _lock = threading.Lock()

    def __init__(self, value=0):
        self.value = value

    def load(self, site=None):
        if site is not None:
            checkpoint(site)
        return self.value

    def store(self, value, site):
        checkpoint(site)
        self.value = value

    def add(self, delta, site):
        """Add ``delta``; returns the prior value."""
        checkpoint(site)
        with self._lock:
            prior = self.value
            self.value = prior + delta
            return prior


def test_uninstalled_controller_costs_nothing():
    cell = Word(0)
    assert cell.add(1, site="x") == 0
    assert cell.load(site="y") == 1


def test_unregistered_threads_pass_through():
    cell = Word(0)
    with ControlledScheduler() as sched:
        sched.spawn("w", lambda: cell.add(1, site="bump"))
        assert sched.wait_quiescent() == ("w",)
        # neither the main thread nor a plain thread is a worker: no pausing
        cell.add(1, site="bump")
        plain = threading.Thread(target=cell.add, args=(1,), kwargs={"site": "bump"})
        plain.start()
        plain.join(timeout=5.0)
        assert not plain.is_alive()
        assert cell.load() == 2
        assert sched.parked_site("w") == "bump"
        sched.run_to_completion("w")
    assert cell.load() == 3


def test_worker_exception_surfaces_at_join():
    def boom():
        raise RuntimeError("kaput")

    sched = ControlledScheduler()
    with pytest.raises(RuntimeError, match="kaput"):
        with sched:
            sched.spawn("w", boom)
            sched.join_all()


def test_a_plain_thread_worker_that_raises_fails_its_call():
    # The uncontrolled counterpart: the call fails only once every worker
    # is joined, and names the thread that raised.
    def fails():
        assert 1 == 2

    with pytest.raises(AssertionError, match="plain-1") as raised:
        run_on_plain_threads(lambda: 1, fails)
    assert isinstance(raised.value.__cause__, AssertionError)


def test_scheduler_context_always_releases_frozen_workers():
    cell = Word(0)

    def body():
        cell.add(1, site="bump")
        cell.add(1, site="after")

    with ControlledScheduler() as sched:
        sched.spawn("w", body)
        sched.run_until("w", "after")
        assert cell.load() == 1
        # no run_to_completion: leaving the context must still unblock and join
    assert cell.load() == 2


def test_stepping_runs_exactly_one_op_per_grant():
    cell = Word(0)

    def body():
        for _ in range(3):
            cell.add(1, site="bump")

    sched = ControlledScheduler()
    with sched:
        sched.spawn("w", body)
        sched.wait_quiescent()
        for expected in range(3):
            assert cell.load() == expected
            sched.grant("w")
            sched.wait_quiescent()
        assert cell.load() == 3


def test_run_until_stops_at_site():
    trace = []

    def body():
        checkpoint("a")
        trace.append("a")
        checkpoint("b")
        trace.append("b")
        checkpoint("c")
        trace.append("c")

    sched = ControlledScheduler()
    with sched:
        sched.spawn("w", body)
        sched.run_until("w", "c")
        assert trace == ["a", "b"]
        sched.run_to_completion("w")
        assert trace == ["a", "b", "c"]


def test_drive_with_seeded_walk_is_reproducible():
    def factory():
        cell = Word(0)
        log = []

        def body(tag):
            def run():
                for _ in range(4):
                    cell.add(1, site="bump")
                    log.append(tag)
            return run

        return log, [("a", body("a")), ("b", body("b"))]

    def run_with(seed):
        log, bodies = factory()
        sched = ControlledScheduler()
        with sched:
            for name, fn in bodies:
                sched.spawn(name, fn)
            sched.drive(random_walk(seed))
        return log

    assert run_with(42) == run_with(42)
    assert any(run_with(s) != run_with(42) for s in (1, 2, 3, 4, 5))


def _explore_bumps(steps):
    """Every interleaving of one worker per entry, bumping that many times."""
    def factory():
        cell = Word(0)

        def body(n):
            def run(_state):
                for _ in range(n):
                    cell.add(1, site="bump")
            return run

        return cell, [(chr(ord("a") + i), body(n)) for i, n in enumerate(steps)]

    outcomes = list(explore_interleavings(factory))
    assert all(o.state.load() == sum(steps) for o in outcomes)
    assert len({tuple(o.schedule) for o in outcomes}) == len(outcomes)
    return outcomes


def test_exploration_counts_interleavings_of_independent_steps():
    # two threads, two steps each: C(4, 2) = 6 interleavings
    assert len(_explore_bumps((2, 2))) == 6


def test_exploration_counts_interleavings_past_finished_workers():
    # 6! / (1! 2! 3!) = 60: most schedules go on after a worker finishes,
    # and the finishing worker picks the next step.
    assert len(_explore_bumps((1, 2, 3))) == 60


def test_exploration_finds_a_lost_update():
    # read-modify-write split into an instrumented read and an instrumented
    # write loses updates in some interleavings; exploration must find one.
    def factory():
        cell = Word(0)

        def body(_state):
            v = cell.load(site="read")
            cell.store(v + 1, site="write")

        return cell, [("a", body), ("b", body)]

    finals = [o.state.load() for o in explore_interleavings(factory)]
    assert set(finals) == {1, 2}


def test_grant_rejects_unparked_worker():
    sched = ControlledScheduler()
    with sched:
        sched.spawn("w", lambda: None)
        sched.wait_quiescent()
        with pytest.raises(ScheduleError):
            sched.grant("nobody")


def test_rejected_grant_uses_no_step_budget():
    sched = ControlledScheduler(step_limit=1)
    with sched:
        sched.spawn("w", lambda: checkpoint("a"))
        sched.wait_quiescent()
        with pytest.raises(ScheduleError, match="cannot grant"):
            sched.grant("nobody")
        sched.grant("w")
        assert sched.wait_quiescent() == ()


# The handoff tests below join every worker thread with a timeout, so a
# lost baton fails the test instead of hanging the suite.

def _counting_body(cell, steps, threads, finished):
    def run():
        threads.append(threading.current_thread())
        for _ in range(steps):
            cell.add(1, site="bump")
        finished.append(threading.current_thread().name)
    return run


def test_raising_chooser_releases_every_parked_worker():
    cell = Word(0)
    threads, finished = [], []
    picks = []

    class ChooserError(Exception):
        pass

    def choose(runnable):
        if len(picks) == 3:
            assert len(runnable) == 3       # all three parked mid-run
            raise ChooserError("stop")
        picks.append(runnable[0])
        return runnable[0]

    with pytest.raises(ChooserError):
        with ControlledScheduler() as sched:
            for name in ("a", "b", "c"):
                sched.spawn(name, _counting_body(cell, 4, threads, finished))
            sched.drive(choose)
    join_threads(threads, timeout=5.0)
    assert len(finished) == 3           # released workers ran free to the end
    assert cell.load() == 12


def test_repeated_wait_quiescent_and_mixed_scripted_drivers():
    cell = Word(0)
    threads, finished = [], []
    sched = ControlledScheduler()
    with sched:
        sched.spawn("a", _counting_body(cell, 3, threads, finished))
        sched.spawn("b", _counting_body(cell, 2, threads, finished))
        first = sched.wait_quiescent()
        t0 = time.monotonic()
        assert sched.wait_quiescent(timeout=5.0) == first == ("a", "b")
        assert time.monotonic() - t0 < 1.0
        sched.grant("a")
        sched.wait_quiescent()
        sched.run_until("a", "bump")
        assert cell.load() == 1
        sched.run_to_completion("b")
        assert cell.load() == 3
        assert sched.wait_quiescent() == ("a",)
        sched.run_to_completion("a")
    join_threads(threads, timeout=5.0)
    assert cell.load() == 5


def test_late_spawn_is_waited_for():
    # "a" parks before "b" exists; quiescence must then include "b".
    cell = Word(0)
    threads, finished = [], []
    sched = ControlledScheduler()
    with sched:
        sched.spawn("a", _counting_body(cell, 1, threads, finished))
        deadline = time.monotonic() + 5.0
        while sched.parked_site("a") is None:
            assert time.monotonic() < deadline, "a never parked"
            time.sleep(0.001)
        sched.spawn("b", _counting_body(cell, 1, threads, finished))
        assert sched.wait_quiescent() == ("a", "b")
        sched.drive(random_walk(0))
    join_threads(threads, timeout=5.0)
    assert cell.load() == 2


def test_drive_goes_on_after_shorter_workers_finish():
    cell = Word(0)
    threads, finished = [], []
    with ControlledScheduler() as sched:
        for name, steps in (("a", 1), ("b", 3), ("c", 5)):
            sched.spawn(name, _counting_body(cell, steps, threads, finished))
        trace = sched.drive(random_walk(7))
    join_threads(threads, timeout=5.0)
    assert cell.load() == 9
    assert len(trace) == 1 + 3 + 5      # one grant per bump
    sizes = [len(runnable) for _, runnable in trace]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] == 3 and sizes[-1] == 1
    assert trace[-1][1] == ("c",)


def test_stepped_worker_raising_before_its_first_pause():
    cell = Word(0)
    threads, finished = [], []
    drove = []

    def boom():
        threads.append(threading.current_thread())
        raise RuntimeError("before its first pause")

    with pytest.raises(RuntimeError, match="before its first pause"):
        with ControlledScheduler() as sched:
            sched.spawn("bad", boom)
            sched.spawn("ok", _counting_body(cell, 2, threads, finished))
            trace = sched.drive(random_walk(3))
            drove.append(trace)
            with pytest.raises(RuntimeError, match="before its first pause"):
                sched.results()
    join_threads(threads, timeout=5.0)
    assert [pick for pick, _ in drove[0]] == ["ok"] * 2
    assert cell.load() == 2


def _scripted_walk(sched, choose):
    """The reference for ``drive``: a driver-thread wait_quiescent/grant loop."""
    trace = []
    while runnable := sched.wait_quiescent():
        pick = choose(runnable)
        trace.append((pick, runnable))
        sched.grant(pick)
    return trace


def test_drive_matches_the_scripted_walk():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # preempt the workers between their pauses
    try:
        for seed in range(50):
            rng = random.Random(seed)
            steps = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
            runs = []
            for walk in (lambda sched: sched.drive(random_walk(seed)),
                         lambda sched: _scripted_walk(sched, random_walk(seed))):
                cell = Word(0)
                threads, finished = [], []
                with ControlledScheduler() as sched:
                    for i, n in enumerate(steps):
                        sched.spawn(f"w{i}", _counting_body(cell, n, threads, finished))
                    trace = walk(sched)
                join_threads(threads, timeout=5.0)
                runs.append((trace, cell.load(), finished))
            driven, scripted = runs
            assert driven == scripted, seed
            assert len(driven[0]) == sum(steps)
    finally:
        sys.setswitchinterval(interval)


def test_drive_step_limit():
    cell = Word(0)
    threads, finished = [], []
    with ControlledScheduler(step_limit=3) as sched:
        for name in ("a", "b"):
            sched.spawn(name, _counting_body(cell, 4, threads, finished))
        with pytest.raises(ScheduleError, match="^step limit exceeded$"):
            sched.drive(random_walk(1))
        assert cell.load() == 3
    join_threads(threads, timeout=5.0)
    assert cell.load() == 8             # released workers ran free to the end


def test_drive_rejects_a_pick_outside_the_runnable_set():
    cell = Word(0)
    threads, finished = [], []
    with ControlledScheduler() as sched:
        for name in ("a", "b"):
            sched.spawn(name, _counting_body(cell, 2, threads, finished))
        with pytest.raises(ScheduleError,
                           match=r"^chooser picked 'c', runnable \('a', 'b'\)$"):
            sched.drive(lambda runnable: "c")
        assert cell.load() == 0
    join_threads(threads, timeout=5.0)
    assert cell.load() == 4


def test_drive_times_out_on_a_worker_blocked_between_pauses():
    cell = Word(0)
    threads, finished = [], []
    gate = threading.Event()

    def blocked():
        threads.append(threading.current_thread())
        gate.wait(timeout=10.0)
        cell.add(1, site="bump")

    with ControlledScheduler() as sched:
        sched.spawn("a", _counting_body(cell, 2, threads, finished))
        sched.spawn("stuck", blocked)
        t0 = time.monotonic()
        with pytest.raises(ScheduleError, match=r"^workers never parked: \['stuck'\]$"):
            sched.drive(random_walk(2), timeout=0.3)
        assert time.monotonic() - t0 < 5.0
        gate.set()
    join_threads(threads, timeout=5.0)
    assert cell.load() == 3


# Declared waits: a worker parked at a checkpoint that names what blocks it
# is disabled while that condition holds.

def _gated(gate, threads, finished):
    def run():
        threads.append(threading.current_thread())
        atomics.checkpoint("gated", gate.load)
        finished.append(threading.current_thread().name)
    return run


def _opener(gate, threads):
    def run():
        threads.append(threading.current_thread())
        gate.store(0, site="open")
    return run


def test_a_worker_whose_wait_holds_is_not_runnable():
    gate = Word(1)
    threads, finished = [], []
    with ControlledScheduler() as sched:
        sched.spawn("a", _gated(gate, threads, finished))
        sched.spawn("b", _opener(gate, threads))
        trace = sched.drive(lambda runnable: runnable[0])
    join_threads(threads, timeout=5.0)
    # "a" sorts first, yet the chooser sees it only once "b" has opened.
    assert trace == [("b", ("b",)), ("a", ("a",))]
    assert len(finished) == 1


def test_scripted_grant_of_a_waiting_worker_raises():
    gate = Word(1)
    threads, finished = [], []
    with ControlledScheduler(step_limit=2) as sched:
        sched.spawn("a", _gated(gate, threads, finished))
        sched.spawn("b", _opener(gate, threads))
        assert sched.wait_quiescent() == ("a", "b")
        with pytest.raises(ScheduleError, match=r"^cannot grant 'a': it waits at 'gated'$"):
            sched.grant("a")
        assert sched.parked_site("a") == "gated"
        sched.grant("b")
        assert sched.wait_quiescent() == ("a",)
        sched.grant("a")                # the wait has cleared; no budget was spent
        assert sched.wait_quiescent() == ()
    join_threads(threads, timeout=5.0)
    assert len(finished) == 1


def test_drive_raises_at_once_when_every_parked_worker_waits():
    cell, stuck = Word(0), Word(1)
    threads, finished = [], []
    with ControlledScheduler(step_limit=10**6) as sched:
        sched.spawn("a", _gated(stuck, threads, finished))
        sched.spawn("b", _gated(stuck, threads, finished))
        sched.spawn("c", _counting_body(cell, 3, threads, finished))
        t0 = time.monotonic()
        with pytest.raises(ScheduleError, match=r"^deadlock: every parked worker waits: "
                                                r"'a' at 'gated', 'b' at 'gated'$"):
            sched.drive(random_walk(4))
        assert time.monotonic() - t0 < 2.0
        assert cell.load() == 3         # "c" ran to its end: three steps, not a million
        assert sched.parked_site("a") == sched.parked_site("b") == "gated"
    join_threads(threads, timeout=5.0)
    assert len(finished) == 3           # released waiters ran free to the end


def _run_opposite_order_deadlock():
    """Each lock-mode serializer applies a request by announcing it on the
    other: x holds a's lock and waits for b's, y the other way round.  The
    walk reports the deadlock, which leaves the ``with`` block.  Returns
    the two workers' threads."""
    threads = []

    def apply_a(req):
        threads.append(threading.current_thread())
        checkpoint("in-a")
        return b.announce(req)

    def apply_b(req):
        threads.append(threading.current_thread())
        checkpoint("in-b")
        return a.announce(req)

    a = make_serializer(TWO_LOCKS, apply_a)
    b = make_serializer(TWO_LOCKS, apply_b)
    with pytest.raises(ScheduleError, match=r"^deadlock: every parked worker waits: "
                                            r"'x' at 'lock-acquire', 'y' at 'lock-acquire'$"):
        with ControlledScheduler() as sched:
            sched.spawn("x", a.announce, "x")
            sched.spawn("y", b.announce, "y")
            sched.run_until("x", "in-a")
            sched.run_until("y", "in-b")
            sched.drive(random_walk(0))
    return threads


def test_exit_after_a_deadlock_raises_the_deadlock_at_once():
    # The workers of the deadlock stay parked until their starvation
    # timeout: leaving the block must neither wait long for them nor replace
    # the walk's error.
    t0 = time.monotonic()
    _run_opposite_order_deadlock()
    assert time.monotonic() - t0 < 2.0


def test_waiters_left_at_an_error_exit_end_by_their_starvation_timeout(monkeypatch):
    # Released, each would block in its Lock.acquire for good; left parked,
    # each ends when its wait for a grant times out.
    monkeypatch.setattr(sched_module, "_DEFAULT_TIMEOUT", 0.5)
    threads = _run_opposite_order_deadlock()
    assert sorted(t.name for t in threads) == ["depq-sched-x", "depq-sched-y"]
    deadline = time.monotonic() + 5.0
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads)


PAUSE_SCHEDULES = {
    ("list-depq", TWO_LOCKS, DEFERRED): "f654447d296720cd",
    ("list-depq", TWO_LOCKS, EPOCH): "1ef91ea2b49aeb47",
    ("list-depq", COMBINING, DEFERRED): "b9357ed49c82de31",
    ("list-depq", COMBINING, EPOCH): "4eb086550a4a389e",
    ("dual-heap", TWO_LOCKS, DEFERRED): "06f003a016d6744b",
    ("dual-heap", COMBINING, DEFERRED): "4a84113ea2af8e9b",
}


@pytest.mark.parametrize("impl, mode, reclaim_mode", list(PAUSE_SCHEDULES))
def test_stress_windows_keep_their_pause_schedule(monkeypatch, impl, mode, reclaim_mode):
    """The drive traces of 50 seeded stress windows, hashed.  A trace names
    each step's thread and the threads parked with it, so a pause site
    added, removed or moved past another thread's access changes the hash;
    a change to how a word is stored, with every site kept, does not."""
    traces = []
    drive = ControlledScheduler.drive

    def recorded(sched, *args, **kwargs):
        trace = drive(sched, *args, **kwargs)
        traces.append(trace)
        return trace

    monkeypatch.setattr(ControlledScheduler, "drive", recorded)
    outcome = run_stress(WorkloadConfig(impl, mode, reclaim_mode=reclaim_mode, seed=7),
                         windows=50)
    assert outcome.failed is None
    assert len(traces) == 50
    digest = hashlib.sha256(repr(traces).encode()).hexdigest()[:16]
    assert digest == PAUSE_SCHEDULES[impl, mode, reclaim_mode], f"recomputed digest {digest}"

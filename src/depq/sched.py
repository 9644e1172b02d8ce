"""Controlled scheduler for deterministic concurrency scenarios.

Worker threads pause at every instrumented shared-memory operation (see
:mod:`depq.atomics`).  ``spawn`` starts a worker at once, and it runs
to its first pause; from its first pause on, it parks at every site and
runs only when granted a step, as in CHESS.  Drivers include scripted
runs (``run_until`` / ``run_to_completion`` / ``grant``), a seeded random
walk, and the exhaustive interleaving explorer below.  To hold a thread
at a site while others act, run it there with ``run_until``; to let it
finish, use ``run_to_completion``.  A wait (a
:func:`depq.atomics.checkpoint` given ``blocked``) enters through
``pause`` with the condition that blocks it, and the worker is disabled
while that holds: no chooser sees it, no ``grant`` may pick it, a walk
with only such threads raises.

A step is handed off with batons, locks created held, so each handoff
wakes exactly one thread.  Every worker parks on its own baton, and a
grant releases that one.  A walk (``drive``, ``run_until``,
``run_to_completion``) installs a chooser on the scheduler.  Whichever
worker brings the count of running workers to zero, the last one to park
or the last one to finish, calls the chooser under the scheduler's lock
and grants its pick itself, so a driven step costs one thread switch.
The driver waits on a baton of its own, released only when the walk ends:
no worker is left parked, the chooser returned None, or the chooser or
the grant raised, in which case the driver re-raises the error.  Without
a chooser, as for the scripted ``wait_quiescent`` / ``grant``, the last
worker to stop releases the driver's baton at once.

Only spawned threads pause; the invoking thread and any plain
``threading.Thread`` pass every site at once, so fixtures can be built
inline and uncontrolled traffic can run beside parked workers.  Leaving
the scheduler's ``with`` block releases every parked worker to run free,
except, when an error ends the block, a worker whose declared wait still
holds: it stays parked and ends by its starvation timeout.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from . import atomics


class ScheduleError(RuntimeError):
    """A scripted or explored schedule could not be realized."""


_DEFAULT_TIMEOUT = 20.0
# The step budget of each run an exploration makes.
_EXPLORE_STEP_LIMIT = 100_000
# How long an exit that an error ended waits for the released workers.
_EXIT_GRACE = 1.0


class _Worker:
    __slots__ = ("name", "thread", "fn", "done", "result", "error", "baton")

    def __init__(self, name: str, fn: Callable[[], Any]):
        self.name = name
        self.fn = fn
        self.thread: threading.Thread | None = None
        self.done = False
        self.result: Any = None
        self.error: BaseException | None = None
        self.baton = _held_lock()     # released by the grant that lets it step


def _held_lock() -> threading.Lock:
    lock = threading.Lock()
    lock.acquire()
    return lock


class ControlledScheduler:
    def __init__(self, step_limit: int = 500_000):
        self._stepping = True                  # False once released at exit
        self._step_limit = step_limit
        self._steps = 0
        self._lock = threading.Lock()
        self._names: dict[int, str] = {}       # thread ident -> worker name
        self._workers: dict[str, _Worker] = {}
        self._parked: dict[str, str] = {}      # name -> site
        self._waits: dict[str, Callable[[], Any]] = {}  # parked name -> blocked
        # Workers neither parked nor finished.  ``_driver`` is released each
        # time this falls to zero with no walk to take the next step (see
        # _step), and taken once per release.
        self._running = 0
        self._driver = _held_lock()
        # The walk in progress: picks each step under ``_lock`` (see _step).
        self._chooser: Callable[[tuple[str, ...]], str | None] | None = None
        self._chooser_error: BaseException | None = None

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ControlledScheduler":
        atomics.set_controller(self)
        return self

    def __exit__(self, exc_type: object, *_: object) -> None:
        try:
            self._release_everything(keep_waiters=exc_type is not None)
            if exc_type is None:
                self.join_all()
            else:
                # Keep the error that ended the block.  A released worker
                # may never finish, and a waiter left parked ends only by
                # its starvation timeout, so they get a short grace and no
                # join error of their own.
                try:
                    self.join_all(timeout=_EXIT_GRACE, reraise=False)
                except ScheduleError:
                    pass
        finally:
            atomics.set_controller(None)

    def spawn(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        if name in self._workers:
            raise ScheduleError(f"duplicate worker name {name!r}")
        worker = _Worker(name, lambda: fn(*args, **kwargs))
        with self._lock:
            self._workers[name] = worker
            self._count_running()
        thread = threading.Thread(target=self._run_worker, args=(worker,),
                                  name=f"depq-sched-{name}", daemon=True)
        worker.thread = thread
        thread.start()

    def _run_worker(self, worker: _Worker) -> None:
        ident = threading.get_ident()
        with self._lock:
            self._names[ident] = worker.name
        try:
            worker.result = worker.fn()
        except BaseException as exc:  # reported at join_all
            worker.error = exc
        finally:
            with self._lock:
                worker.done = True
                self._names.pop(ident, None)
                self._count_stopped()

    # Both count helpers are called with ``_lock`` held, so the driver's
    # baton is held whenever a worker is running.

    def _count_running(self) -> None:
        if self._running == 0:
            # Take back a release the driver has not consumed: it would
            # otherwise report quiescence while this worker runs.
            self._driver.acquire(blocking=False)
        self._running += 1

    def _count_stopped(self) -> None:
        self._running -= 1
        if self._running == 0 and not self._step():
            self._driver.release()

    def _step(self) -> bool:
        """Grant the installed chooser's pick; False, uninstalling it, ends the walk.

        Called with ``_lock`` held and no worker running.  An error from the
        chooser or the grant is kept for the driver to re-raise.
        """
        chooser = self._chooser
        if chooser is None:
            return False
        runnable = tuple(sorted(self._parked))
        if self._waits:             # leave out the disabled workers
            runnable = tuple(n for n in runnable if not (n in self._waits and self._waits[n]()))
        try:
            if self._parked and not runnable:
                waiters = ", ".join(f"{n!r} at {s!r}" for n, s in sorted(self._parked.items()))
                raise ScheduleError(f"deadlock: every parked worker waits: {waiters}")
            pick = chooser(runnable) if runnable else None
            if pick is not None:
                self._grant_parked(pick)
                return True
        except BaseException as exc:  # re-raised by the driver in _walk
            self._chooser_error = exc
        self._chooser = None
        return False

    def join_all(self, timeout: float = _DEFAULT_TIMEOUT, reraise: bool = True) -> None:
        deadline = _Deadline(timeout)
        for worker in self._workers.values():
            assert worker.thread is not None
            worker.thread.join(timeout=deadline.remaining())
            if worker.thread.is_alive():
                raise ScheduleError(f"worker {worker.name!r} did not finish")
        if reraise:
            for worker in self._workers.values():
                if worker.error is not None:
                    raise worker.error

    def result(self, name: str) -> Any:
        worker = self._workers[name]
        if worker.error is not None:
            raise worker.error
        return worker.result

    def results(self) -> dict[str, Any]:
        return {n: self.result(n) for n in self._workers}

    # -- instrumentation callback -------------------------------------------

    def pause(self, site: str, blocked: Callable[[], Any] | None = None) -> None:
        """Park a spawned worker at ``site`` until it is granted a step.

        ``blocked``, given for a declared wait, disables the worker while
        it returns true.  Other threads return at once.
        """
        name = self._names.get(threading.get_ident())
        if name is None:
            return
        baton = self._workers[name].baton
        with self._lock:
            if not self._stepping:          # released at exit
                return
            self._parked[name] = site
            if blocked is not None:
                self._waits[name] = blocked
            self._count_stopped()
        if baton.acquire(timeout=_DEFAULT_TIMEOUT):
            return
        with self._lock:
            if self._parked.pop(name, None) is not None:
                self._count_running()
                raise ScheduleError(f"worker {name!r} starved waiting for a grant")
        baton.acquire()                     # granted just after the timeout

    def _release_everything(self, keep_waiters: bool) -> None:
        """Let every parked worker run free, so that join_all can complete.

        With ``keep_waiters``, a worker whose declared wait still holds
        stays parked: released, it would block for real, for good (one of
        a deadlock a walk reported, say).  It ends by its starvation timeout.
        """
        with self._lock:
            self._stepping = False
            for name in list(self._parked):
                blocked = self._waits.get(name)
                if keep_waiters and blocked is not None and blocked():
                    continue
                del self._parked[name]
                self._count_running()
                self._workers[name].baton.release()

    # -- drivers ---------------------------------------------------------------

    def wait_quiescent(self, timeout: float = _DEFAULT_TIMEOUT) -> tuple[str, ...]:
        """Block until every live worker is parked; returns parked names sorted.

        A granted worker leaves the parked set in the same step as its grant
        and counts as running until it parks again, so the names returned
        are exactly the workers waiting for a grant, disabled ones too.  A
        second call with no grant in between returns at once.
        """
        deadline = _Deadline(timeout)
        while True:
            with self._lock:
                if self._running == 0:
                    self._driver.acquire(blocking=False)    # unless it was taken below
                    return tuple(sorted(self._parked))
            self._await_driver(deadline)

    def _await_driver(self, deadline: _Deadline) -> None:
        """Take the driver's baton, released when no worker is left running."""
        while not self._driver.acquire(timeout=deadline.remaining()):
            with self._lock:
                if self._running:
                    self._chooser = None
                    stuck = [n for n, w in self._workers.items()
                             if not w.done and n not in self._parked]
                    raise ScheduleError(f"workers never parked: {stuck}")

    def parked_site(self, name: str) -> str | None:
        with self._lock:
            return self._parked.get(name)

    def grant(self, name: str) -> None:
        """Let ``name`` execute its pending operation and run to its next pause."""
        with self._lock:
            self._grant_parked(name)

    def _grant_parked(self, name: str) -> None:
        if name not in self._parked:
            raise ScheduleError(f"cannot grant {name!r}: not parked")
        blocked = self._waits.get(name)
        if blocked is not None and blocked():
            raise ScheduleError(f"cannot grant {name!r}: it waits at {self._parked[name]!r}")
        self._steps += 1
        if self._steps > self._step_limit:
            raise ScheduleError("step limit exceeded")
        del self._parked[name]
        self._waits.pop(name, None)
        self._count_running()
        self._workers[name].baton.release()

    def _walk(self, chooser: Callable[[tuple[str, ...]], str | None],
              timeout: float) -> None:
        """Step parked workers with ``chooser`` until the walk ends (see _step).

        ``chooser`` runs under ``_lock`` in whichever thread stops last, so it
        must not call back into the scheduler or reach a pause site.
        """
        deadline = _Deadline(timeout)
        with self._lock:
            self._chooser = chooser
            # With every worker already parked, no worker will stop to take
            # the first step, so the driver takes it.
            walking = self._running > 0 or self._step()
        if walking:
            self._await_driver(deadline)
        with self._lock:
            error, self._chooser_error = self._chooser_error, None
        if error is not None:
            raise error

    def run_until(self, name: str, site: str, timeout: float = _DEFAULT_TIMEOUT) -> None:
        """Advance only ``name`` until it parks at ``site``."""
        # Step ``name`` until it parks at ``site`` or is no longer parked.
        self._walk(lambda _: name if self._parked.get(name, site) != site else None, timeout)
        if self.parked_site(name) != site:
            raise ScheduleError(f"{name!r} finished before reaching {site!r}")

    def run_to_completion(self, name: str, timeout: float = _DEFAULT_TIMEOUT) -> Any:
        """Advance only ``name`` until it finishes; returns its result."""
        self._walk(lambda _: name if name in self._parked else None, timeout)
        return self.result(name)

    def drive(self, choose: Callable[[tuple[str, ...]], str],
              timeout: float = _DEFAULT_TIMEOUT) -> list[tuple[str, tuple[str, ...]]]:
        """Step all workers to completion, picking each step with ``choose``.

        ``choose`` sees the parked workers' names, sorted, the disabled left
        out, and runs in the thread that parked or finished last, under the
        scheduler's lock.  Returns the trace: one (chosen, runnable) per step.
        """
        trace: list[tuple[str, tuple[str, ...]]] = []

        def step(runnable: tuple[str, ...]) -> str:
            pick = choose(runnable)
            if pick not in runnable:
                raise ScheduleError(f"chooser picked {pick!r}, runnable {runnable}")
            trace.append((pick, runnable))
            return pick

        self._walk(step, timeout)
        return trace


class _Deadline:
    def __init__(self, seconds: float):
        self._deadline = time.monotonic() + seconds

    def remaining(self) -> float:
        return max(0.01, self._deadline - time.monotonic())


# -- exploration -------------------------------------------------------------


@dataclass
class RunOutcome:
    """One fully executed interleaving."""

    state: Any
    results: dict[str, Any]
    trace: list[tuple[str, tuple[str, ...]]] = field(repr=False)

    @property
    def schedule(self) -> list[str]:
        return [pick for pick, _ in self.trace]


ThreadSpec = list[tuple[str, Callable[[Any], Any]]]


def _run_once(factory: Callable[[], tuple[Any, ThreadSpec]],
              prefix: list[str]) -> RunOutcome:
    state, threads = factory()
    sched = ControlledScheduler(step_limit=_EXPLORE_STEP_LIMIT)
    position = 0

    def choose(runnable: tuple[str, ...]) -> str:
        nonlocal position
        if position < len(prefix):
            pick = prefix[position]
            if pick not in runnable:
                raise ScheduleError(
                    f"replay diverged: wanted {pick!r} at step {position}, runnable {runnable}")
        else:
            pick = runnable[0]
        position += 1
        return pick

    with sched:
        for name, fn in threads:
            sched.spawn(name, fn, state)
        trace = sched.drive(choose)
        results = sched.results()
    return RunOutcome(state=state, results=results, trace=trace)


def explore_interleavings(factory: Callable[[], tuple[Any, ThreadSpec]]) -> Iterator[RunOutcome]:
    """Exhaustively enumerate interleavings of the given threads.

    ``factory`` builds fresh shared state plus named thread bodies for every
    run.  Enumeration is depth-first over scheduling choices with replay:
    each run re-executes from scratch under a forced prefix, then extends it
    with the first runnable thread.  Thread bodies must be deterministic.
    """
    prefix: list[str] = []
    alternatives: list[list[str]] = []
    while True:
        outcome = _run_once(factory, prefix)
        yield outcome
        trace = outcome.trace
        for i in range(len(alternatives), len(trace)):
            pick, runnable = trace[i]
            alternatives.append([r for r in runnable if r != pick])
        while alternatives and not alternatives[-1]:
            alternatives.pop()
        if not alternatives:
            return
        depth = len(alternatives) - 1
        nxt = alternatives[-1].pop(0)
        prefix = [trace[i][0] for i in range(depth)] + [nxt]


def random_walk(seed: int) -> Callable[[tuple[str, ...]], str]:
    """A seeded chooser for ControlledScheduler.drive."""
    rng = random.Random(seed)
    return lambda runnable: rng.choice(runnable)

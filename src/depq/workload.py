"""Workload harness behind the CLI: benchmarks and checked stress windows.

Benchmarks run real threads against one of the two builds and report
exact counters plus accounting identities.  Stress windows are small
concurrent runs driven by the stepping scheduler with a seeded random
walk, so each window's interleaving (and therefore its recorded history)
is reproducible from the seed; every history is checked for
linearizability on the spot.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable

from .atomics import checkpoint
from .combining import DEFAULT_MODE, MODES
from .dual_depq import DualDepq, MultiConsumerDepq
from .items import Arena
from .lincheck import Recorder, Verdict, check, write_history
from .list_depq import ListDepq
from .oracle import LockedHeapPq
from .reclaim import DEFERRED, EPOCH
from .sched import ControlledScheduler, random_walk


def _dual_heap(cfg: WorkloadConfig) -> MultiConsumerDepq:
    arena = Arena()
    dual = DualDepq(arena, LockedHeapPq(arena), LockedHeapPq(arena, descending=True))
    return MultiConsumerDepq(dual, cfg.mode, batch_cap=cfg.batch_cap)


#: impl name -> constructor of a fresh build.  Every build answers the
#: harness through ``remaining_keys``, ``problems``, ``stats`` and ``close``.
BUILDS = {
    "list-depq": lambda cfg: ListDepq(mode=cfg.mode, batch_cap=cfg.batch_cap,
                                      reclaim_mode=cfg.reclaim_mode),
    "dual-heap": _dual_heap,
}
IMPLS = tuple(BUILDS)


class ConfigError(ValueError):
    pass


@dataclass
class WorkloadConfig:
    impl: str = "list-depq"
    mode: str = DEFAULT_MODE         # per-end serializer of every build
    threads_insert: int = 2
    threads_min: int = 1
    threads_max: int = 1
    prefill: int = 0
    key_range: int = 1024
    ops_per_thread: int | None = 1000
    duration_ms: int | None = None
    seed: int = 1
    batch_cap: int = 64
    reclaim_mode: str = DEFERRED

    def validate(self) -> None:
        if self.impl not in IMPLS:
            raise ConfigError(f"impl must be one of {IMPLS}, got {self.impl!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if min(self.threads_insert, self.threads_min, self.threads_max) < 0:
            raise ConfigError("thread counts cannot be negative")
        if self.threads_insert + self.threads_min + self.threads_max < 1:
            raise ConfigError("need at least one thread")
        if self.prefill < 0:
            raise ConfigError("prefill cannot be negative")
        if self.key_range < 1:
            raise ConfigError("key_range must be positive")
        if (self.ops_per_thread is None) == (self.duration_ms is None):
            raise ConfigError("exactly one of ops_per_thread / duration_ms required")
        if self.ops_per_thread is not None and self.ops_per_thread < 1:
            raise ConfigError("ops_per_thread must be positive")
        if self.duration_ms is not None and self.duration_ms < 1:
            raise ConfigError("duration_ms must be positive")
        if self.batch_cap < 1:
            raise ConfigError("batch_cap must be at least 1")
        if self.reclaim_mode not in (DEFERRED, EPOCH):
            raise ConfigError(f"reclaim must be {DEFERRED!r} or {EPOCH!r}")
        if self.reclaim_mode == EPOCH and self.impl != "list-depq":
            raise ConfigError(f"reclaim {EPOCH!r} needs impl 'list-depq': "
                              f"{self.impl!r} runs without a reclaimer")


@dataclass
class RunReport:
    schema: int
    impl: str
    mode: str
    seed: int
    wall_time_s: float
    ops: dict
    throughput: dict
    retries: dict
    batch_sizes: dict
    retired_nodes: int
    audit_ok: bool
    accounting_ok: bool
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["batch_sizes"] = {str(k): v for k, v in self.batch_sizes.items()}
        return out


class WorkerError(RuntimeError):
    """A benchmark worker raised, so the run's results are incomplete."""


def _spawn_all(workers: dict[str, Callable[[], None]]) -> None:
    """Run each named worker on its own thread and wait for all of them.

    A worker that raises does not stop the others; once all are joined,
    the first failure is raised as a WorkerError chained to its exception.
    """
    failures: list[tuple[str, Exception]] = []

    def guarded(name: str, work: Callable[[], None]) -> None:
        try:
            work()
        except Exception as exc:  # re-raised on the spawning thread
            failures.append((name, exc))

    threads = [threading.Thread(target=guarded, args=item, daemon=True)
               for item in workers.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        name, exc = failures[0]
        raise WorkerError(f"worker {name} raised {exc!r}") from exc


def run_bench(cfg: WorkloadConfig) -> RunReport:
    cfg.validate()
    depq = BUILDS[cfg.impl](cfg)
    master = random.Random(cfg.seed)

    inserted: Counter = Counter()
    prefill_rng = random.Random(master.getrandbits(64))
    for _ in range(cfg.prefill):
        key = prefill_rng.randrange(cfg.key_range)
        depq.insert(key)
        inserted[key] += 1

    deadline = None
    if cfg.duration_ms is not None:
        deadline = time.monotonic() + cfg.duration_ms / 1000.0

    tallies: dict[str, tuple[str, list, int]] = {}  # worker -> (op, keys, calls)

    def inserter(name: str, rng: random.Random):
        def body():
            keys: list[int] = []
            while _keep_going(len(keys), deadline, cfg):
                key = rng.randrange(cfg.key_range)
                depq.insert(key)
                keys.append(key)
            tallies[name] = ("insert", keys, len(keys))
        return body

    def extractor(name: str, kind: str):
        op = getattr(depq, kind)

        def body():
            keys, n = [], 0
            while _keep_going(n, deadline, cfg):
                got = op()
                if got is not None:
                    keys.append(got)
                n += 1
            tallies[name] = (kind, keys, n)
        return body

    seeds = [master.getrandbits(64) for _ in range(cfg.threads_insert)]
    workers = {f"ins{i}": inserter(f"ins{i}", random.Random(seed))
               for i, seed in enumerate(seeds)}
    for i in range(cfg.threads_min):
        workers[f"min{i}"] = extractor(f"min{i}", "extract_min")
    for i in range(cfg.threads_max):
        workers[f"max{i}"] = extractor(f"max{i}", "extract_max")

    started = time.monotonic()
    try:
        _spawn_all(workers)
    except WorkerError:
        depq.close()
        raise
    wall = time.monotonic() - started

    returned: Counter = Counter()
    ops = {"insert": cfg.prefill, "extract_min": 0, "extract_max": 0}
    for kind, keys, calls in tallies.values():
        ops[kind] += calls
        (inserted if kind == "insert" else returned).update(keys)

    # Audit first: a list that fails it may be cyclic, and then counting its
    # keys raises, which the report's notes record.
    notes = depq.problems()
    try:
        remaining = Counter(depq.remaining_keys())
    except AssertionError as exc:
        notes.append(str(exc))
        remaining = None
    accounting_ok = remaining is not None and inserted == returned + remaining
    stats = depq.stats()
    throughput = {k: (v / wall if wall > 0 else 0.0) for k, v in ops.items()}
    report = RunReport(
        schema=1, impl=cfg.impl, mode=cfg.mode, seed=cfg.seed,
        wall_time_s=wall, ops=ops, throughput=throughput,
        retries={"failed_reserve": sum(stats["reserve_failures"]),
                 "failed_insert_cas": stats["insert_cas_failures"]},
        batch_sizes=stats["batch_sizes"], retired_nodes=stats["retired"],
        audit_ok=not notes, accounting_ok=accounting_ok, notes=notes,
    )
    depq.close()
    return report


def _keep_going(done: int, deadline: float | None, cfg: WorkloadConfig) -> bool:
    if cfg.ops_per_thread is not None:
        return done < cfg.ops_per_thread
    assert deadline is not None
    return time.monotonic() < deadline


# -- stress windows ------------------------------------------------------------

#: The most operations one stress window runs, prefill included.
WINDOW_OPS = 12


@dataclass
class WindowResult:
    index: int
    verdict: Verdict
    ops: int
    path: str | None


@dataclass
class StressOutcome:
    windows: list[WindowResult]
    failed: WindowResult | None


class _FreshBuild:
    """``run_stress``'s default target: a fresh build of ``cfg.impl``."""

    def __init__(self, cfg: WorkloadConfig):
        self.depq = BUILDS[cfg.impl](cfg)
        self.close = self.depq.close


def run_stress(cfg: WorkloadConfig, windows: int, capture: str | None = None,
               _target_factory=None) -> StressOutcome:
    """Run seeded, schedule-controlled windows; check each one.

    Every window rebuilds a fresh structure, runs 2-6 threads for at most
    ``WINDOW_OPS`` operations under the stepping scheduler's random walk,
    and checks the history.  Stops at the first non-linearizable window.
    ``_target_factory(cfg)``, if given, builds each window's target in
    place of a fresh build: an object with the queue as ``.depq`` and a
    ``.close()``.
    """
    cfg.validate()
    if windows < 1:
        raise ConfigError("windows must be at least 1")
    master = random.Random(cfg.seed)
    out: list[WindowResult] = []
    for index in range(windows):
        wrng = random.Random(master.getrandbits(64))
        target = (_target_factory or _FreshBuild)(cfg)
        recorder = Recorder()
        recorded = recorder.wrap(target.depq)

        budget = WINDOW_OPS
        n_prefill = wrng.randint(0, min(3, budget - 2))
        for _ in range(n_prefill):
            recorded.insert(wrng.randrange(8))
        budget -= n_prefill
        n_threads = min(wrng.randint(2, 6), budget)
        plans: list[list[tuple[str, int | None]]] = [[] for _ in range(n_threads)]
        for t in range(n_threads):
            plans[t].append(_random_op(wrng))
            budget -= 1
        while budget > 0 and wrng.random() < 0.8:
            plans[wrng.randrange(n_threads)].append(_random_op(wrng))
            budget -= 1

        def body(plan):
            def run(_state):
                # Park before the first clock tick so the whole history,
                # timestamps included, is a function of the seed alone.
                checkpoint("window-start")
                for kind, arg in plan:
                    if kind == "Insert":
                        recorded.insert(arg)
                    elif kind == "ExtractMin":
                        recorded.extract_min()
                    else:
                        recorded.extract_max()
            return run

        sched = ControlledScheduler()
        with sched:
            for t, plan in enumerate(plans):
                sched.spawn(f"w{t}", body(plan), None)
            sched.drive(random_walk(wrng.getrandbits(64)))

        history = recorder.snapshot()
        # Closed first, so a history that cannot be written leaks no build.
        target.close()
        if capture:
            write_history(history, capture)
        result = check(history)
        window = WindowResult(index=index, verdict=result.verdict,
                              ops=len(history), path=capture)
        out.append(window)
        if result.verdict is not Verdict.LINEARIZABLE:
            return StressOutcome(out, window)
    return StressOutcome(out, None)


def _random_op(rng: random.Random) -> tuple[str, int | None]:
    roll = rng.random()
    if roll < 0.45:
        return ("Insert", rng.randrange(8))
    if roll < 0.75:
        return ("ExtractMin", None)
    return ("ExtractMax", None)

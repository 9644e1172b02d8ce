"""Workload harness behind the CLI: benchmarks and checked stress windows.

Benchmarks run real threads against one of the three builds and report
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
from .dual_depq import DualDepq, make_multi_consumer
from .items import ENDS, MAX, MIN, Arena
from .lincheck import Recorder, Verdict, check, write_history
from .list_depq import ListDepq
from .oracle import HeapOrderError, LockedHeapPq
from .ordered_list import ListPair, ListPq
from .reclaim import DEFERRED, EPOCH
from .sched import ControlledScheduler, random_walk

IMPLS = ("list-depq", "dual-heap", "dual-list")


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


class BenchTarget:
    """Uniform facade over the three builds for the harness."""

    def __init__(self, cfg: WorkloadConfig):
        self.cfg = cfg
        if cfg.impl == "list-depq":
            self._list = ListDepq(mode=cfg.mode, batch_cap=cfg.batch_cap,
                                  reclaim_mode=cfg.reclaim_mode)
            self.depq = self._list
            self._dual = None
        else:
            arena = Arena()
            if cfg.impl == "dual-heap":
                min_pq = LockedHeapPq(arena)
                max_pq = LockedHeapPq(arena, descending=True)
            else:
                self._pair = ListPair(arena)
                min_pq = ListPq(self._pair, MIN)
                max_pq = ListPq(self._pair, MAX)
            self._dual = DualDepq(arena, min_pq, max_pq)
            self.depq = make_multi_consumer(self._dual, cfg.mode,
                                            batch_cap=cfg.batch_cap)
            self._list = None

    def remaining_keys(self) -> list[int]:
        """Live contents at quiescence."""
        if self._list is not None:
            return self._list.remaining_keys()
        dual = self._dual
        assert dual is not None
        if isinstance(dual.min_pq, LockedHeapPq):
            return [dual.arena.item(i).user_key
                    for i in dual.min_pq.contents()
                    if dual.arena.item(i).reserved.load() == 0]
        return [k.user_key for k in dual.min_pq.lists.suffix_keys(MIN)]

    def audit(self) -> tuple[bool, list[str]]:
        notes: list[str] = []
        if self._list is not None:
            for end in ENDS:
                report = self._list.audit(end)
                if not report.ok:
                    notes.append(report.describe())
            return not notes, notes
        dual = self._dual
        assert dual is not None
        if isinstance(dual.min_pq, LockedHeapPq):
            try:
                dual.min_pq.check_heap()
                dual.max_pq.check_heap()
            except HeapOrderError as exc:
                notes.append(str(exc))
        else:
            for end in ENDS:
                report = dual.min_pq.lists.audit(end)
                if not report.ok:
                    notes.append(report.describe())
        return not notes, notes

    def counter_snapshot(self) -> dict:
        if self._list is not None:
            counters = self._list.counters.snapshot()
            counters["retired"] = self._list.reclaim.snapshot()["retired"]
        else:
            dual = self._dual
            assert dual is not None
            counters = dual.counters.snapshot()
            counters["insert_cas_failures"] = 0
            counters["retired"] = 0
            if isinstance(dual.min_pq, ListPq):
                lists = dual.min_pq.lists.counters.snapshot()
                counters["insert_cas_failures"] = lists["insert_cas_failures"]
        counters["batch_sizes"] = _batch_sizes(self.depq.combiner_stats)
        return counters

    def close(self) -> None:
        if self._list is not None:
            self._list.close()


def _batch_sizes(stats_of) -> dict[int, int]:
    """Both ends' serializer batch-size histograms, merged."""
    sizes: Counter = Counter()
    for end in ENDS:
        sizes.update(stats_of(end).snapshot()["batch_sizes"])
    return dict(sorted(sizes.items()))


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

    CSV_COLUMNS = ("schema", "impl", "mode", "seed", "wall_time_s",
                   "insert_ops", "extract_min_ops", "extract_max_ops",
                   "insert_per_s", "extract_min_per_s", "extract_max_per_s",
                   "failed_reserve", "failed_insert_cas", "retired_nodes",
                   "audit_ok", "accounting_ok")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["batch_sizes"] = {str(k): v for k, v in self.batch_sizes.items()}
        return out

    def to_csv_row(self) -> str:
        row = {
            "schema": self.schema, "impl": self.impl, "mode": self.mode,
            "seed": self.seed, "wall_time_s": f"{self.wall_time_s:.6f}",
            "insert_ops": self.ops["insert"],
            "extract_min_ops": self.ops["extract_min"],
            "extract_max_ops": self.ops["extract_max"],
            "insert_per_s": f"{self.throughput['insert']:.1f}",
            "extract_min_per_s": f"{self.throughput['extract_min']:.1f}",
            "extract_max_per_s": f"{self.throughput['extract_max']:.1f}",
            "failed_reserve": self.retries["failed_reserve"],
            "failed_insert_cas": self.retries["failed_insert_cas"],
            "retired_nodes": self.retired_nodes,
            "audit_ok": int(self.audit_ok),
            "accounting_ok": int(self.accounting_ok),
        }
        return ",".join(str(row[c]) for c in self.CSV_COLUMNS)


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
    target = BenchTarget(cfg)
    master = random.Random(cfg.seed)

    inserted: Counter = Counter()
    prefill_rng = random.Random(master.getrandbits(64))
    for _ in range(cfg.prefill):
        key = prefill_rng.randrange(cfg.key_range)
        target.depq.insert(key)
        inserted[key] += 1

    deadline = None
    if cfg.duration_ms is not None:
        deadline = time.monotonic() + cfg.duration_ms / 1000.0

    results: dict[str, list] = {}
    lock = threading.Lock()

    def make_inserter(name: str, seed: int):
        rng = random.Random(seed)

        def body():
            mine = []
            n = 0
            while _keep_going(n, deadline, cfg):
                key = rng.randrange(cfg.key_range)
                target.depq.insert(key)
                mine.append(key)
                n += 1
            with lock:
                results[name] = mine
        return body

    attempts: dict[str, int] = {}

    def make_extractor(name: str, kind: str):
        def body():
            mine = []
            n = 0
            op = (target.depq.extract_min if kind == "extract_min"
                  else target.depq.extract_max)
            while _keep_going(n, deadline, cfg):
                got = op()
                if got is not None:
                    mine.append(got)
                n += 1
            with lock:
                results[name] = mine
                attempts[name] = n
        return body

    workers = {}
    seeds = [master.getrandbits(64) for _ in range(cfg.threads_insert)]
    for i in range(cfg.threads_insert):
        workers[f"ins{i}"] = make_inserter(f"ins{i}", seeds[i])
    for i in range(cfg.threads_min):
        workers[f"min{i}"] = make_extractor(f"min{i}", "extract_min")
    for i in range(cfg.threads_max):
        workers[f"max{i}"] = make_extractor(f"max{i}", "extract_max")

    started = time.monotonic()
    try:
        _spawn_all(workers)
    except WorkerError:
        target.close()
        raise
    wall = time.monotonic() - started

    returned: Counter = Counter()
    ops = {"insert": cfg.prefill, "extract_min": 0, "extract_max": 0}
    for name, values in results.items():
        if name.startswith("ins"):
            ops["insert"] += len(values)
            inserted.update(values)
        else:
            kind = "extract_min" if name.startswith("min") else "extract_max"
            ops[kind] += attempts[name]
            returned.update(values)

    remaining = Counter(target.remaining_keys())
    accounting_ok = inserted == returned + remaining

    audit_ok, notes = target.audit()
    counters = target.counter_snapshot()
    throughput = {k: (v / wall if wall > 0 else 0.0) for k, v in ops.items()}
    report = RunReport(
        schema=1,
        impl=cfg.impl,
        mode=cfg.mode,
        seed=cfg.seed,
        wall_time_s=wall,
        ops=ops,
        throughput=throughput,
        retries={
            "failed_reserve": sum(counters["reserve_failures"]),
            "failed_insert_cas": counters["insert_cas_failures"],
        },
        batch_sizes=counters["batch_sizes"],
        retired_nodes=counters["retired"],
        audit_ok=audit_ok,
        accounting_ok=accounting_ok,
        notes=notes,
    )
    target.close()
    return report


def _keep_going(done: int, deadline: float | None, cfg: WorkloadConfig) -> bool:
    if cfg.ops_per_thread is not None:
        return done < cfg.ops_per_thread
    assert deadline is not None
    return time.monotonic() < deadline


# -- stress windows ------------------------------------------------------------


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

    @property
    def all_linearizable(self) -> bool:
        return self.failed is None


def run_stress(cfg: WorkloadConfig, windows: int, capture: str | None = None,
               max_window_ops: int = 12,
               _target_factory=None) -> StressOutcome:
    """Run seeded, schedule-controlled windows; check each one.

    Every window rebuilds a fresh small structure, runs 2-6 threads for a
    dozen operations under the stepping scheduler's random walk, and checks
    the recorded history.  Stops at the first non-linearizable window.
    """
    cfg.validate()
    master = random.Random(cfg.seed)
    out: list[WindowResult] = []
    for index in range(windows):
        wrng = random.Random(master.getrandbits(64))
        target = (_target_factory or BenchTarget)(cfg)
        recorder = Recorder()
        recorded = recorder.wrap(target.depq)

        budget = max_window_ops
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

        sched = ControlledScheduler(stepping=True)
        with sched:
            for t, plan in enumerate(plans):
                sched.spawn(f"w{t}", body(plan), None)
            sched.drive(random_walk(wrng.getrandbits(64)))

        history = recorder.snapshot()
        if capture:
            write_history(history, capture)
        result = check(history)
        window = WindowResult(index=index, verdict=result.verdict,
                              ops=len(history), path=capture)
        out.append(window)
        target.close()
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

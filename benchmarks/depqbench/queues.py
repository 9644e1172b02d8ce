"""Closed-loop two-thread load for the queue workloads.

One *round* builds a fresh queue, prefills it, runs a fixed amount of
traffic on two worker threads and gates the result.  Thread 0 extracts at
the min end and thread 1 at the max end, so each end has exactly one
consumer (the setting in which the construction is linearizable).  Each
thread issues its next call only when the previous one has returned.

Inputs are drawn from the round's random generator before anything is
timed.  ``setup_s`` covers construction plus prefill; the traffic clock
starts when the first worker passes the start barrier and stops when both
have been joined.
"""

from __future__ import annotations

import random
import threading
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .metrics import QUANTILES, percentile

KEY_SPACE = 1 << 20
#: A worker still running this long after the round started is reported as
#: hung (e.g. a combiner that died holding its role).
JOIN_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class QueueWorkload:
    """One queue workload.

    ``alternate`` traffic: each thread alternates insert and extract for
    ``ops_per_thread`` calls, so the live size stays near ``prefill``.
    ``burst`` traffic: for ``cycles`` cycles, each thread inserts ``burst``
    keys and then extracts until it gets ``None``; a two-party barrier ends
    each cycle, so every cycle ends with the queue empty.
    """

    name: str
    build: Callable[[], object]
    traffic: str
    prefill: int = 0
    ops_per_thread: int = 0
    cycles: int = 0
    burst: int = 0


@dataclass
class RoundResult:
    """One round, summarized so a long run keeps no per-call samples."""

    setup_s: float
    wall_s: float
    calls: int              # attempted insert/extract calls
    failed: int             # calls that raised, or every call if the gate failed
    op_ns: int              # summed latency of all calls
    # call kind -> percentile -> microseconds, and call kind -> sample count
    latency_us: dict[str, dict[float, float]]
    samples: dict[str, int]
    problems: list[str] = field(default_factory=list)
    layer: dict = field(default_factory=dict)
    scale: float = 1.0      # speed scale, set by the runner's calibration

    @property
    def attempted(self) -> int:
        return self.calls


class _Worker:
    """Per-thread plan and results; only its own thread writes to it."""

    def __init__(self, end: int, keys: list[int]):
        self.end = end
        self.keys = keys
        self.inserted: list[int] = []
        self.returned: list[int] = []
        self.insert_ns = array("q")
        self.extract_ns = array("q")
        self.calls = 0
        self.failed = 0
        self.started = 0.0
        self.error: str | None = None


def _alternate(depq, w: _Worker, n_ops: int, barrier) -> None:
    insert = depq.insert
    extract = depq.extract_min if w.end == 0 else depq.extract_max
    clock = time.perf_counter_ns
    keys = iter(w.keys)
    for i in range(n_ops):
        w.calls += 1
        if i % 2 == 0:
            key = next(keys)
            t0 = clock()
            insert(key)
            w.insert_ns.append(clock() - t0)
            w.inserted.append(key)
        else:
            t0 = clock()
            got = extract()
            w.extract_ns.append(clock() - t0)
            if got is not None:
                w.returned.append(got)


def _bursts(depq, w: _Worker, burst: int, barrier) -> None:
    insert = depq.insert
    extract = depq.extract_min if w.end == 0 else depq.extract_max
    clock = time.perf_counter_ns
    keys = w.keys
    for start in range(0, len(keys), burst):
        for key in keys[start:start + burst]:
            w.calls += 1
            t0 = clock()
            insert(key)
            w.insert_ns.append(clock() - t0)
            w.inserted.append(key)
        while True:
            w.calls += 1
            t0 = clock()
            got = extract()
            w.extract_ns.append(clock() - t0)
            if got is None:
                break
            w.returned.append(got)
        barrier.wait()


def run_round(spec: QueueWorkload, rng: random.Random, tracer=None) -> RoundResult:
    """Run one gated round of ``spec``; ``tracer`` wraps only the traffic."""
    prefill = [rng.randrange(KEY_SPACE) for _ in range(spec.prefill)]
    if spec.traffic == "alternate":
        per_thread = (spec.ops_per_thread + 1) // 2
        body, arg = _alternate, spec.ops_per_thread
    else:
        per_thread = spec.cycles * spec.burst
        body, arg = _bursts, spec.burst
    workers = [_Worker(end, [rng.randrange(KEY_SPACE) for _ in range(per_thread)])
               for end in (0, 1)]

    t0 = time.perf_counter()
    target = spec.build()
    depq = target.depq
    for key in prefill:
        depq.insert(key)
    setup_s = time.perf_counter() - t0

    start = threading.Barrier(2)
    cycle = threading.Barrier(2)

    def run(w: _Worker) -> None:
        try:
            start.wait()
            w.started = time.perf_counter()
            body(depq, w, arg, cycle)
        except threading.BrokenBarrierError:
            pass  # the other worker failed and aborted the cycle barrier
        except Exception:
            w.failed += 1
            w.error = traceback.format_exc()
            cycle.abort()

    threads = [threading.Thread(target=run, args=(w,), daemon=True) for w in workers]
    if tracer is not None:
        tracer.install()
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + JOIN_TIMEOUT_S
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        wall_s = time.perf_counter() - min(w.started or t0 for w in workers)
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems = [w.error for w in workers if w.error]
    hung = [t.name for t in threads if t.is_alive()]
    if hung:
        problems.append(f"workers still running after {JOIN_TIMEOUT_S:.0f} s: {hung}")
    calls = sum(w.calls for w in workers)
    failed = sum(w.failed for w in workers)
    layer = {}
    if not problems:
        problems = gate(target, prefill, workers)
        layer = target.layer_counts()
    if problems:
        failed = calls
    if not hung:
        target.close()
    latency_us, samples, op_ns = {}, {}, 0
    for kind in ("insert_ns", "extract_ns"):
        ns = sorted(getattr(workers[0], kind) + getattr(workers[1], kind))
        latency_us[kind] = {q: percentile(ns, q) / 1e3 for q in QUANTILES}
        samples[kind] = len(ns)
        op_ns += sum(ns)
    return RoundResult(setup_s=setup_s, wall_s=wall_s, calls=calls, failed=failed,
                       op_ns=op_ns, latency_us=latency_us, samples=samples,
                       problems=problems, layer=layer)


def gate(target, prefill: list[int], workers: list[_Worker]) -> list[str]:
    """inserted = returned + remaining (as multisets), then the build's audit."""
    inserted = Counter(prefill)
    returned: Counter = Counter()
    for w in workers:
        inserted.update(w.inserted)
        returned.update(w.returned)
    remaining = Counter(target.remaining())
    problems = []
    if inserted != returned + remaining:
        lost = inserted - (returned + remaining)
        extra = (returned + remaining) - inserted
        problems.append(
            f"accounting identity broken: {sum(lost.values())} inserted keys "
            f"missing, {sum(extra.values())} keys never inserted or duplicated")
    return problems + target.problems()

"""Command line of the benchmark: one workload, one seed, one result line.

A run repeats gated rounds of its workload (fresh queue each time) until
``--seconds`` of wall time have passed, and always runs at least
``MIN_ROUNDS``.  Between rounds it times the calibration loop, and reports
times scaled to the loop's reference speed.  With ``--trace 0`` it reports
the end-to-end metrics.  With ``--trace 1`` it spends half the time
untraced and half traced, and reports the per-layer metrics plus the
tracing overhead; the spans go to
``<out_dir>/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every round passed its correctness gate.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .calibrate import REFERENCE_S, loop_seconds, ring
from .metrics import end_to_end, per_layer, throughput
from .queues import QueueWorkload, run_round
from .targets import HeapTarget, ListTarget
from .trace import Tracer
from .verify import run_window

MIN_ROUNDS = 3
#: Rounds between two timings of the calibration loop last at least this long.
CALIBRATE_EVERY_S = 0.5
#: The traced phase ends early once it holds this many spans (about 64 bytes
#: each in memory), so that a fast workload's trace stays a few tens of MB.
MAX_SPANS = 500_000
EXIT_INCORRECT = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable   # (rng, tracer) -> one gated round


def _queue(spec: QueueWorkload, why: str) -> Workload:
    return Workload(spec.name, why, lambda rng, tracer: run_round(spec, rng, tracer))


# Round sizes give a run of 25 s at least a dozen rounds, each with hundreds
# of calls of each kind beyond its p75.
WORKLOADS = {w.name: w for w in (
    _queue(QueueWorkload("deep-list", ListTarget, "alternate", prefill=1000,
                         ops_per_thread=1000),
           "list-depq near 1000 live keys: the O(n) insert walk and its zombies dominate"),
    _queue(QueueWorkload("burst-list", ListTarget, "burst", cycles=50, burst=32),
           "list-depq drained every cycle: extraction, sweep, combining and reclaim dominate"),
    _queue(QueueWorkload("deep-heap", HeapTarget, "alternate", prefill=1000,
                         ops_per_thread=4000),
           "dual-heap on deep-list's traffic: bypasses every list layer"),
    Workload("verify", "list-depq stress windows: the stepping scheduler and lincheck",
             run_window),
)}


def measure(workload: Workload, master: random.Random, seconds: float,
            tracer: Tracer | None = None) -> list:
    """Gated rounds for ``seconds`` (at least MIN_ROUNDS), each given the
    speed scale of the calibration loops timed around it."""
    rounds: list = []
    pending: list = []
    calibration = ring()
    before = loop_seconds(calibration)
    last = time.perf_counter()
    deadline = last + seconds
    while len(rounds) + len(pending) < MIN_ROUNDS or (
            time.perf_counter() < deadline and (tracer is None or len(tracer) < MAX_SPANS)):
        result = workload.run(random.Random(master.getrandbits(64)), tracer)
        pending.append(result)
        if result.problems:
            break
        gc.collect()
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            before = _scale(pending, rounds, before, calibration)
            last = time.perf_counter()
    if pending:
        _scale(pending, rounds, before, calibration)
    return rounds


def _scale(pending: list, rounds: list, before: float, calibration) -> float:
    after = loop_seconds(calibration)
    for result in pending:
        result.scale = REFERENCE_S / ((before + after) / 2)
    rounds.extend(pending)
    pending.clear()
    return after


def git_commit(root: Path) -> str:
    """The checked-out commit, read without running git; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=None, root: Path | None = None,
         out_dir: Path | None = None) -> int:
    workloads = WORKLOADS if workloads is None else workloads
    args = parse_args(argv, workloads)
    workload = workloads[args.workload]
    master = random.Random(args.seed)
    env = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "switchinterval_s": sys.getswitchinterval(), "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(root) if root is not None else "unknown",
    }
    print("# env " + json.dumps(env), flush=True)

    metrics: dict = {}
    unscaled: dict = {}
    if args.trace:
        plain = measure(workload, master, args.seconds / 2)
        rounds = plain
        if not any(r.problems for r in plain):
            tracer = Tracer()
            traced = measure(workload, master, args.seconds / 2, tracer)
            rounds = plain + traced
            metrics = per_layer(traced, tracer, throughput(plain))
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                tracer.write_jsonl(out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl")
    else:
        rounds = measure(workload, master, args.seconds)
        metrics = end_to_end(rounds)
        unscaled = end_to_end(rounds, scaled=False)

    problems = [p for r in rounds for p in r.problems]
    correct = not problems
    for text in problems:
        print(text.rstrip(), file=sys.stderr)
    if not correct:
        metrics = {}
    for name, (value, unit, samples) in metrics.items():
        raw = unscaled.get(name, (value,))[0]
        raw = f", unscaled {raw:.6g}" if raw != value else ""
        print(f"{name} = {value:.6g} {unit} (n={samples}{raw})")
    scales = [r.scale for r in rounds]
    print(f"# {len(rounds)} rounds; speed scale median {statistics.median(scales):.4g}, "
          f"range {min(scales):.4g}-{max(scales):.4g}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"failed_op_share = {failed / attempted:.6g} (n={attempted})")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }), flush=True)
    return 0 if correct else EXIT_INCORRECT

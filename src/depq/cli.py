"""Command-line harness.

Subcommands::

    depq bench    --impl list-depq --threads-insert 2 --threads-min 1 ...
    depq stress   --windows 500 --capture hist.jsonl ...
    depq lincheck FILE
    depq replay   {counterexample,twist,single-item-race,index-start-reclaimed}

Exit codes: 0 success; 2 invalid configuration, or a history file that
cannot be read, written or checked; 3 a post-run audit or the bench
accounting identity failed; 4 a history was not linearizable (or the
check ran out of budget); 5 a replay schedule could not be realized; 6 a
bench worker raised.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import scenarios
from .combining import DEFAULT_MODE, MODES
from .lincheck import Verdict, check, read_history
from .reclaim import DEFERRED, EPOCH
from .sched import ScheduleError
from .workload import (IMPLS, ConfigError, WorkerError, WorkloadConfig,
                       run_bench, run_stress)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_AUDIT = 3
EXIT_NOT_LINEARIZABLE = 4
EXIT_SCHEDULE = 5
EXIT_WORKER = 6


def _add_build_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--impl", default="list-depq", choices=IMPLS)
    p.add_argument("--mode", default=DEFAULT_MODE, choices=MODES,
                   help="per-end serialization of extractions: a lock per end, "
                        "or the paper's combining")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--batch-cap", type=int, default=64)
    p.add_argument("--reclaim", default=DEFERRED, choices=(DEFERRED, EPOCH),
                   help="epoch applies to list-depq only")


def _add_traffic_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads-insert", type=int, default=2)
    p.add_argument("--threads-min", type=int, default=1)
    p.add_argument("--threads-max", type=int, default=1)
    p.add_argument("--prefill", type=int, default=0)
    p.add_argument("--key-range", type=int, default=1024)
    p.add_argument("--ops", type=int, default=None,
                   help="operations per thread (mutually exclusive with --duration-ms)")
    p.add_argument("--duration-ms", type=int, default=None)


def _config(args: argparse.Namespace, **traffic) -> WorkloadConfig:
    """The build the options name; ``traffic`` sets the other fields."""
    return WorkloadConfig(impl=args.impl, mode=args.mode, seed=args.seed,
                          batch_cap=args.batch_cap, reclaim_mode=args.reclaim,
                          **traffic)


def cmd_bench(args: argparse.Namespace) -> int:
    ops = args.ops
    if ops is None and args.duration_ms is None:
        ops = 1000
    try:
        cfg = _config(args, threads_insert=args.threads_insert,
                      threads_min=args.threads_min, threads_max=args.threads_max,
                      prefill=args.prefill, key_range=args.key_range,
                      ops_per_thread=ops, duration_ms=args.duration_ms)
        report = run_bench(cfg)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WorkerError as exc:
        traceback.print_exception(exc.__cause__, file=sys.stderr)
        print(f"bench FAILED: {exc}", file=sys.stderr)
        return EXIT_WORKER
    print(json.dumps(report.to_dict(), indent=2))
    code = EXIT_OK
    if not report.audit_ok:
        print("post-run audit FAILED", file=sys.stderr)
        for note in report.notes:
            print(note, file=sys.stderr)
        code = EXIT_AUDIT
    if not report.accounting_ok:
        print("accounting FAILED: inserted != returned + remaining", file=sys.stderr)
        code = EXIT_AUDIT
    return code


def cmd_stress(args: argparse.Namespace) -> int:
    try:
        outcome = run_stress(_config(args), windows=args.windows, capture=args.capture)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write history: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for w in outcome.windows[-5:]:
        print(f"window {w.index}: {w.verdict.value} ({w.ops} events)")
    good = sum(1 for w in outcome.windows if w.verdict is Verdict.LINEARIZABLE)
    print(f"{good}/{len(outcome.windows)} windows linearizable")
    if outcome.failed is not None:
        where = outcome.failed.path or "(pass --capture FILE to keep the history)"
        print(f"window {outcome.failed.index}: {outcome.failed.verdict.value}; "
              f"history: {where}", file=sys.stderr)
        return EXIT_NOT_LINEARIZABLE
    return EXIT_OK


def cmd_lincheck(args: argparse.Namespace) -> int:
    try:
        events = read_history(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot read history: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = check(events)
    except ValueError as exc:  # malformed
        print(f"cannot check history: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(result.verdict.value)
    if result.witness is not None:
        order = " ".join(str(i) for i in result.witness)
        print(f"witness (event positions): {order}")
    return EXIT_OK if result.verdict is Verdict.LINEARIZABLE else EXIT_NOT_LINEARIZABLE


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        outcome = scenarios.run(args.name)
    except ScheduleError as exc:
        print(f"schedule could not be realized: {exc}", file=sys.stderr)
        return EXIT_SCHEDULE
    print(outcome.describe())
    if args.name == "counterexample":
        # Success for this scenario means the checker rejected the history.
        return EXIT_OK if outcome.ok else EXIT_NOT_LINEARIZABLE
    return EXIT_OK if outcome.ok else EXIT_SCHEDULE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depq",
        description="Benchmark, stress-test, and replay the double-ended "
                    "priority queue builds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run a workload and report counters")
    _add_build_args(p_bench)
    _add_traffic_args(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_stress = sub.add_parser(
        "stress", help="run checked concurrent windows; nonzero exit on a "
                       "non-linearizable history")
    _add_build_args(p_stress)
    p_stress.add_argument("--windows", type=int, default=500)
    p_stress.add_argument("--capture", default=None, metavar="FILE",
                          help="record each window's history to FILE "
                               "(the offending one stays on failure)")
    p_stress.set_defaults(fn=cmd_stress)

    p_lin = sub.add_parser("lincheck", help="check a recorded history file")
    p_lin.add_argument("file")
    p_lin.set_defaults(fn=cmd_lincheck)

    p_replay = sub.add_parser("replay", help="deterministically force a named scenario")
    p_replay.add_argument("name", choices=scenarios.SCENARIOS)
    p_replay.set_defaults(fn=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

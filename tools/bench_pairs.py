"""Write a ``BENCH_<pr>.json``: alternating parent/change pairs of the benchmark.

    python3 tools/bench_pairs.py --pr N --parent HEAD~1 \\
        --workload deep-heap:10 --workload deep-list:3

Each pair runs ``python3 benchmarks/run.py --workload W --seed N --seconds S
--trace 0`` once on each side, the parent first in odd pairs and the change
first in even ones, so a drift of the machine's speed favours neither.  ``S``
is ``BENCHMARK.json``'s ``run_seconds``.  The change side is this checkout;
the parent side is ``git archive`` of the commit ``--parent`` unpacked into a
temporary directory, removed at the end, so the repository itself is left
as it was.  Every pair has a seed of its own, counted up from ``100 * pr +
1``.  A run that exits with an error or prints no result line counts as an
incorrect run.

Per workload and end-to-end metric of ``BENCHMARK.json`` the file holds
each side's median and interquartile range, the change's relative
difference, the metric's bound, and ``pairs_won``: the pairs in which the
change read better (ties count for neither).  It also holds the first
change run's ``# env`` line, each side's correctness and failed ops, and
``tier1_wall_s``: the tier-1 suite's wall times as pytest reports them,
and its failed tests, from ``TIER1_RUNS`` alternating runs per side; a
tier-1 run that prints no summary is recorded with its exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
TIER1_RUNS = 6
_SUMMARY = re.compile(r" in ([\d.]+)s\b")
_COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")


def parse_run(stdout: str, returncode: int = 0) -> tuple[dict, dict]:
    """The ``# env`` object and the result object (the last line) of one
    ``benchmarks/run.py`` run's standard output.  A run that exited with
    an error, or whose last line is no result, gives an incorrect result
    with no metrics that names its exit status."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    try:
        result = json.loads(lines[-1]) if returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        result = {"correct": False, "failed": 0, "metrics": {}, "exit": returncode}
    return env, result


def parse_tier1(stdout: str, returncode: int = 0) -> tuple[int, int | dict, float | None]:
    """Tests passed, tests failed or in error, and seconds, from pytest's
    last summary line.  A run that printed no summary line, as one that
    crashed does, reads as no test passed, ``{"exit": returncode}`` failed
    and no time, so the pairs already measured are kept."""
    for line in reversed(stdout.strip().splitlines()):
        found = _SUMMARY.search(line)
        if found and _COUNT.search(line):
            counts = {kind.rstrip("s"): int(n) for n, kind in _COUNT.findall(line)}
            return (counts.get("passed", 0), counts.get("failed", 0) + counts.get("error", 0),
                    float(found.group(1)))
    return 0, {"exit": returncode}, None


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def summarize(seeds: list[int], parent: list[dict], change: list[dict],
              end_to_end: list[dict], command: str, env: dict) -> dict:
    """One workload's entry: ``parent[i]`` and ``change[i]`` are the result
    objects of pair ``i``; ``end_to_end`` is ``BENCHMARK.json``'s list."""
    metrics = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        pairs = [(p["metrics"].get(name, {}).get("value"),
                  c["metrics"].get(name, {}).get("value")) for p, c in zip(parent, change)]
        olds = [p for p, _ in pairs if p is not None]
        news = [c for _, c in pairs if c is not None]
        if not olds or not news:
            continue
        won = sum(1 for p, c in pairs if p is not None and c is not None
                  and (c > p if higher else c < p))
        old, new = statistics.median(olds), statistics.median(news)
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent_median": old, "parent_iqr": iqr(olds),
            "change_median": new, "change_iqr": iqr(news),
            "change_vs_parent": new / old - 1 if old else None,
            "bound": spec["bound"], "pairs_won": won,
        }
    return {
        "seeds": seeds, "pairs": len(seeds), "command": command, "env": env,
        "correct": {"parent": all(r["correct"] for r in parent),
                    "change": all(r["correct"] for r in change)},
        "failed_ops": {"parent": sum(r["failed"] for r in parent),
                       "change": sum(r["failed"] for r in change)},
        "metrics": metrics,
    }


def _median_time(runs: list[tuple]) -> float | None:
    times = [s for _, _, s in runs if s is not None]
    return statistics.median(times) if times else None


def summarize_tier1(command: str, parent: list[tuple], change: list[tuple]) -> dict:
    """``parent[i]`` and ``change[i]`` are :func:`parse_tier1`'s readings of
    run ``i``.  ``tests`` holds each side's most tests passed, and
    ``failed`` each run's failed tests, or the exit status of a run that
    printed no summary; the medians leave such a run out."""
    return {
        "command": command, "runs": len(parent),
        "parent": [s for _, _, s in parent], "change": [s for _, _, s in change],
        "parent_median": _median_time(parent),
        "change_median": _median_time(change),
        "tests": {"parent": max(n for n, _, _ in parent),
                  "change": max(n for n, _, _ in change)},
        "failed": {"parent": [f for _, f, _ in parent], "change": [f for _, f, _ in change]},
    }


def _run(cwd: Path, argv: list[str], env: dict | None = None) -> tuple[str, int]:
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    return done.stdout, done.returncode


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _sides(pair: int, parent: Path) -> list[tuple[str, Path]]:
    sides = [("parent", parent), ("change", ROOT)]
    return sides if pair % 2 == 0 else sides[::-1]


def measure(parent_dir: Path, workloads: list[tuple[str, int]], seconds: float,
            seed_base: int, end_to_end: list[dict]) -> dict:
    out: dict = {"workloads": {}}
    seed = seed_base
    for name, pairs in workloads:
        seeds = list(range(seed, seed + pairs))
        seed += pairs
        runs: dict = {"parent": [], "change": []}
        env: dict = {}
        for pair, n in enumerate(seeds):
            argv = [sys.executable, "benchmarks/run.py", "--workload", name,
                    "--seed", str(n), "--seconds", str(seconds), "--trace", "0"]
            for side, cwd in _sides(pair, parent_dir):
                run_env, result = parse_run(*_run(cwd, argv))
                runs[side].append(result)
                if side == "change" and not env:
                    env = run_env
            print(f"{name} seed {n}: " + ", ".join(
                f"{side} {runs[side][-1]['metrics'].get('insert_p50_us', {}).get('value')}"
                for side in runs), file=sys.stderr, flush=True)
        command = (f"python3 benchmarks/run.py --workload {name} --seed N "
                   f"--seconds {seconds:g} --trace 0")
        out["workloads"][name] = summarize(seeds, runs["parent"], runs["change"],
                                           end_to_end, command, env)
    times: dict = {"parent": [], "change": []}
    for pair in range(TIER1_RUNS):
        for side, cwd in _sides(pair, parent_dir):
            env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
            times[side].append(parse_tier1(*_run(cwd, TIER1, env)))
    out["tier1_wall_s"] = summarize_tier1("PYTHONPATH=src python -m pytest -q",
                                          times["parent"], times["change"])
    return out


def _workload(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    return name, int(pairs or 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD~1", help="the parent commit")
    parser.add_argument("--workload", type=_workload, action="append",
                        help="NAME[:PAIRS], 3 pairs by default; all of BENCHMARK.json's if none")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [(w["name"], 3) for w in bench["workloads"]]
    parent_sha = _git("rev-parse", args.parent)
    change = _git("rev-parse", "HEAD")[:12]
    if _git("status", "--porcelain", "--untracked-files=no"):
        change += " with uncommitted changes"
    with tempfile.TemporaryDirectory() as scratch:
        archive = subprocess.run(["git", "archive", parent_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", scratch], input=archive, check=True)
        result = measure(Path(scratch), workloads, bench["run_seconds"],
                         args.pr * 100 + 1, bench["end_to_end"])
    for entry in result["workloads"].values():
        entry["env"]["commit"] = change
    env = next(iter(result["workloads"].values()))["env"]
    report = {
        "what": ("Parent vs change, alternating pairs of `benchmarks/run.py`; per metric "
                 "the medians and interquartile ranges of each side's runs and the pairs "
                 "in which the change read better (ties count for neither). The parent is "
                 f"commit {parent_sha[:12]}; the change is commit {change}."),
        "machine": (f"{env.get('nproc')}-core machine, CPython {env.get('python')}, each run "
                    f"pinned to CPU {', '.join(map(str, env.get('cpus', [])))} by the runner"),
        **result,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

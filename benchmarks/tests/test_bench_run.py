"""The command's output contract, checked against BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from depqbench import runner
from depqbench.queues import QueueWorkload
from depqbench.targets import ListTarget

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "small-list": runner._queue(
        QueueWorkload("small-list", ListTarget, "alternate", prefill=50, ops_per_thread=400),
        "a quick list workload"),
    "verify": runner.WORKLOADS["verify"],
}


def run(capsys, workload, trace, tmp_path):
    code = runner.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                        "--trace", str(trace)], workloads=SMALL, out_dir=tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_are_those_of_benchmark_json(capsys, tmp_path, workload, trace, section):
    code, result, lines = run(capsys, workload, trace, tmp_path)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # Each metric is also printed by name with its sample count.
    for name in expected:
        assert any(line.startswith(f"{name} = ") and "(n=" in line for line in lines)
    if trace:
        assert (tmp_path / f"trace-{workload}-seed3.jsonl").stat().st_size > 0


def test_trace_shares_separate_the_layers(capsys, tmp_path):
    _code, result, _lines = run(capsys, "verify", 1, tmp_path)
    shares = {name: m["value"] for name, m in result["metrics"].items()
              if name.endswith(".share")}
    assert max(shares, key=shares.get) == "sched.drive.share"
    assert result["metrics"]["lincheck.check.calls"]["value"] > 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(runner.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in runner.WORKLOADS.values()]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

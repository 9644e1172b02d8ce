"""The aggregation of ``tools/bench_pairs.py``, on canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "insert_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
]


def run_output(seed, throughput, insert, correct=True, failed=0):
    """The standard output of one ``benchmarks/run.py`` run, trimmed."""
    env = {"workload": "deep-heap", "seed": seed, "seconds": 25.0}
    metrics = {} if not correct else {
        "throughput_ops_s": {"value": throughput, "unit": "1/s"},
        "insert_p50_us": {"value": insert, "unit": "us"}}
    return "\n".join([
        "# env " + json.dumps(env),
        f"insert_p50_us = {insert} us (n=10)",
        "# 12 rounds; speed scale median 1, range 1-1",
        json.dumps({"correct": correct, "attempted": 100, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


def test_a_run_is_read_from_its_env_line_and_its_last_line():
    env, result = bench_pairs.parse_run(run_output(7, 1000.0, 2.5))
    assert env["seed"] == 7
    assert result["metrics"]["insert_p50_us"]["value"] == 2.5


def test_pairs_are_summarized_as_medians_iqrs_and_pairs_won():
    parent = [bench_pairs.parse_run(run_output(s, t, i))[1]
              for s, t, i in [(1, 100.0, 3.0), (2, 110.0, 2.0), (3, 90.0, 4.0), (4, 100.0, 3.0)]]
    change = [bench_pairs.parse_run(run_output(s, t, i))[1]
              for s, t, i in [(1, 120.0, 2.5), (2, 100.0, 2.0), (3, 130.0, 3.5), (4, 100.0, 2.0)]]
    entry = bench_pairs.summarize([1, 2, 3, 4], parent, change, END_TO_END, "cmd", {"seed": 1})
    assert list(entry) == ["seeds", "pairs", "command", "env", "correct", "failed_ops",
                           "metrics"]
    assert entry["pairs"] == 4 and entry["correct"] == {"parent": True, "change": True}
    up, down = entry["metrics"]["throughput_ops_s"], entry["metrics"]["insert_p50_us"]
    # Higher is better: 120 > 100, 100 < 110, 130 > 90, 100 = 100 (a tie).
    assert up["pairs_won"] == 2
    assert (up["parent_median"], up["change_median"]) == (100.0, 110.0)
    assert up["change_vs_parent"] == pytest.approx(0.10)
    # Lower is better: 2.5 < 3, 2 = 2 (a tie), 3.5 < 4, 2 < 3.
    assert down["pairs_won"] == 3
    assert (down["parent_median"], down["change_median"]) == (3.0, 2.25)
    # Inclusive quartiles of 2, 3, 3, 4 are 2.75 and 3.25.
    assert down["parent_iqr"] == pytest.approx(0.5)
    assert list(down) == ["unit", "better", "parent_median", "parent_iqr", "change_median",
                          "change_iqr", "change_vs_parent", "bound", "pairs_won"]


def test_an_incorrect_run_is_reported_and_left_out_of_the_medians():
    parent = [bench_pairs.parse_run(run_output(1, 100.0, 3.0))[1],
              bench_pairs.parse_run(run_output(2, 100.0, 5.0))[1]]
    change = [bench_pairs.parse_run(run_output(1, 0, 0, correct=False, failed=2))[1],
              bench_pairs.parse_run(run_output(2, 100.0, 4.0))[1]]
    entry = bench_pairs.summarize([1, 2], parent, change, END_TO_END, "cmd", {})
    assert entry["correct"] == {"parent": True, "change": False}
    assert entry["failed_ops"] == {"parent": 0, "change": 2}
    assert entry["metrics"]["insert_p50_us"]["change_median"] == 4.0
    assert entry["metrics"]["insert_p50_us"]["pairs_won"] == 1


def test_a_run_that_exits_with_an_error_counts_as_incorrect():
    crashed = "# env {}\nTraceback (most recent call last):\n"
    for out, code in [(crashed, 1), (run_output(1, 100.0, 3.0), 1), ("", 0), (crashed, 0)]:
        _, result = bench_pairs.parse_run(out, code)
        assert result == {"correct": False, "failed": 0, "metrics": {}, "exit": code}
    parent = [bench_pairs.parse_run(run_output(1, 100.0, 3.0))[1]]
    change = [bench_pairs.parse_run(crashed, 1)[1]]
    entry = bench_pairs.summarize([1], parent, change, END_TO_END, "cmd", {})
    assert entry["correct"] == {"parent": True, "change": False}
    assert entry["metrics"] == {}


def test_tier1_times_and_failures_come_from_pytests_summary_line():
    out = "....\n============ slowest 5 durations ============\n307 passed in 22.10s\n"
    assert bench_pairs.parse_tier1(out) == (307, 0, 22.1)
    assert bench_pairs.parse_tier1("1 failed, 306 passed, 2 warnings in 9.5s") == (306, 1, 9.5)
    assert bench_pairs.parse_tier1("= 2 failed, 300 passed, 1 error in 9.5s =") == (300, 3, 9.5)
    assert bench_pairs.parse_tier1("no summary\n(5 durations < 0.005s hidden.)\n") \
        == (0, {"exit": 0}, None)
    entry = bench_pairs.summarize_tier1("cmd", [(305, 0, 20.0), (305, 0, 22.0)],
                                        [(307, 0, 19.0), (306, 1, 21.0)])
    assert entry == {"command": "cmd", "runs": 2, "parent": [20.0, 22.0],
                     "change": [19.0, 21.0], "parent_median": 21.0,
                     "change_median": 20.0, "tests": {"parent": 305, "change": 307},
                     "failed": {"parent": [0, 0], "change": [0, 1]}}


def test_bench_35_has_the_keys_the_script_writes():
    bench = json.loads((ROOT / "BENCH_35.json").read_text())
    assert list(bench) == ["what", "machine", "workloads", "tier1_wall_s"]
    entry = bench["workloads"]["deep-heap"]
    parent = [bench_pairs.parse_run(run_output(1, 100.0, 3.0))[1]]
    ours = bench_pairs.summarize([1], parent, parent, END_TO_END, "cmd", {})
    assert list(ours) == list(entry)
    assert list(ours["metrics"]["insert_p50_us"]) == list(entry["metrics"]["insert_p50_us"])
    # Tier-1 failures are a key BENCH_35.json did not have; the rest are its keys.
    tier1 = list(bench_pairs.summarize_tier1("cmd", [(1, 0, 1.0)], [(1, 0, 1.0)]))
    assert tier1 == list(bench["tier1_wall_s"]) + ["failed"]


def test_a_tier1_run_that_prints_no_summary_is_recorded_as_failed():
    # A run killed by a segmentation fault prints no pytest summary line.
    crashed = ("........................................................ [ 22%]\n"
               "Fatal Python error: Segmentation fault\n\n"
               "Current thread 0x00007f (most recent call first):\n"
               '  File "src/depq/sched.py", line 200 in _park\n')
    assert bench_pairs.parse_tier1(crashed, -11) == (0, {"exit": -11}, None)
    entry = bench_pairs.summarize_tier1("cmd", [(305, 0, 20.0), (305, 0, 22.0)],
                                        [(307, 0, 19.0), (0, {"exit": -11}, None)])
    assert entry["change"] == [19.0, None] and entry["change_median"] == 19.0
    assert entry["parent_median"] == 21.0
    assert entry["tests"] == {"parent": 305, "change": 307}
    assert entry["failed"] == {"parent": [0, 0], "change": [0, {"exit": -11}]}
    json.dumps(entry)        # it still goes into BENCH_<pr>.json

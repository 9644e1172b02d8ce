"""The benchmark still runs against these sources: each workload briefly.

``benchmarks/run.py`` imports the library's patch points (the tracer wraps
``ControlledScheduler.pause`` and ``drive``; ``verify`` builds its queue
through ``run_stress``'s target factory), so a change under ``src`` can
break it without failing any other test here, and the traced runs read the
builds' counts.  Each run is about 0.5 s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [
    ("deep-list", 0), ("deep-list", 1), ("burst-list", 0), ("deep-heap", 0),
    ("verify", 0), ("verify", 1),
])
def test_benchmark_workload_runs_correctly(workload, trace):
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    if workload == "deep-list" and trace:
        # Built from the list build's counts: extract successes over marks.
        assert 0 < result["metrics"]["ordered_list.claim_ratio"]["value"] <= 1

"""The correctness gate and failure accounting of the queue rounds."""

import json
import random

import pytest

from depqbench import runner
from depqbench.queues import QueueWorkload, run_round
from depqbench.targets import HeapTarget, ListTarget


class DropsInserts:
    """Silently drops every hundredth insert of the queue it wraps."""

    def __init__(self, depq):
        self._depq = depq
        self._inserts = 0
        self.extract_min = depq.extract_min
        self.extract_max = depq.extract_max

    def insert(self, key):
        self._inserts += 1
        if self._inserts % 100:
            self._depq.insert(key)


class RaisesOnExtract:
    """Raises from the 50th extract-max on."""

    def __init__(self, depq):
        self._calls = 0
        self.insert = depq.insert
        self.extract_min = depq.extract_min
        self._extract_max = depq.extract_max

    def extract_max(self):
        self._calls += 1
        if self._calls >= 50:
            raise RuntimeError("injected extract failure")
        return self._extract_max()


def wrapped(build, wrapper):
    def make():
        target = build()
        target.depq = wrapper(target.depq)
        return target
    return make


def small(name, build, traffic="alternate"):
    if traffic == "alternate":
        return QueueWorkload(name, build, "alternate", prefill=50, ops_per_thread=400)
    return QueueWorkload(name, build, "burst", cycles=10, burst=8)


@pytest.mark.parametrize("build", [ListTarget, HeapTarget])
@pytest.mark.parametrize("traffic", ["alternate", "burst"])
def test_correct_build_passes(build, traffic):
    result = run_round(small("ok", build, traffic), random.Random(1))
    assert result.problems == []
    assert result.failed == 0
    assert result.calls == sum(result.samples.values())
    assert result.layer  # counters were read


@pytest.mark.parametrize("build", [ListTarget, HeapTarget])
@pytest.mark.parametrize("traffic", ["alternate", "burst"])
def test_gate_rejects_one_dropped_insert_in_a_hundred(build, traffic):
    spec = small("drops", wrapped(build, DropsInserts), traffic)
    result = run_round(spec, random.Random(1))
    assert any("accounting identity broken" in p for p in result.problems)
    assert result.failed == result.calls > 0


@pytest.mark.parametrize("traffic", ["alternate", "burst"])
def test_worker_exception_is_counted(traffic):
    spec = small("raises", wrapped(ListTarget, RaisesOnExtract), traffic)
    result = run_round(spec, random.Random(1))
    assert result.failed > 0
    assert any("injected extract failure" in p for p in result.problems)


def test_worker_exception_gives_failed_share_and_nonzero_exit(capsys):
    spec = small("raises", wrapped(ListTarget, RaisesOnExtract))
    workloads = {"raises": runner._queue(spec, "fails on purpose")}
    code = runner.main(["--workload", "raises", "--seconds", "0.1"], workloads=workloads)
    out = capsys.readouterr()
    last = json.loads(out.out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False
    assert last["failed"] > 0 and last["attempted"] >= last["failed"]
    assert "injected extract failure" in out.err
    share = [line for line in out.out.splitlines() if line.startswith("failed_op_share")]
    assert share and float(share[0].split()[2]) > 0

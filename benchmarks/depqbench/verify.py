"""The ``verify`` workload: the ``depq stress`` path, one window at a time.

Each window is one ``run_stress`` call on ``list-depq`` with its own seed:
a fresh queue, 2-6 threads and at most 12 operations under the stepping
scheduler's seeded random walk, then ``lincheck.check`` on the recorded
history.  Windows are run one by one so each gets its own latency, and the
queue is built through ``run_stress``'s target factory so that its
construction (``setup_s``) and every call into it are timed.
"""

from __future__ import annotations

import random
import time
import traceback
from array import array
from dataclasses import dataclass, field

from depq.lincheck import Verdict
from depq.list_depq import ListDepq
from depq.workload import WorkloadConfig, run_stress


@dataclass
class WindowResult:
    setup_s: float
    wall_s: float
    calls: int
    insert_ns: array = field(default_factory=lambda: array("q"))
    extract_ns: array = field(default_factory=lambda: array("q"))
    problems: list[str] = field(default_factory=list)
    layer: dict = field(default_factory=dict)
    # Too few calls for percentiles of its own: the samples are pooled.
    latency_us: dict = field(default_factory=dict)
    scale: float = 1.0      # speed scale, set by the runner's calibration

    # A window is the unit that passes or fails.
    attempted = 1

    @property
    def failed(self) -> int:
        return 1 if self.problems else 0

    @property
    def op_ns(self) -> int:
        # The traced shares of ``verify`` are taken over whole windows.
        return int(self.wall_s * 1e9)


class _TimedDepq:
    """Times each call into the queue; sits below the history recorder.

    The shared arrays need no lock: the stepping scheduler lets one worker
    run at a time.
    """

    def __init__(self, depq: ListDepq, result: WindowResult):
        self._depq = depq
        self._result = result

    def _timed(self, fn, sink: array, *args):
        t0 = time.perf_counter_ns()
        out = fn(*args)
        sink.append(time.perf_counter_ns() - t0)
        return out

    def insert(self, key: int) -> None:
        self._timed(self._depq.insert, self._result.insert_ns, key)

    def extract_min(self) -> int | None:
        return self._timed(self._depq.extract_min, self._result.extract_ns)

    def extract_max(self) -> int | None:
        return self._timed(self._depq.extract_max, self._result.extract_ns)


class _WindowTarget:
    def __init__(self, cfg: WorkloadConfig, result: WindowResult):
        t0 = time.perf_counter()
        self._queue = ListDepq(batch_cap=cfg.batch_cap, reclaim_mode=cfg.reclaim_mode)
        result.setup_s = time.perf_counter() - t0
        self.depq = _TimedDepq(self._queue, result)

    def close(self) -> None:
        self._queue.close()


def run_window(rng: random.Random, tracer=None) -> WindowResult:
    """One checked window; the ``depq stress`` defaults apart from the seed."""
    cfg = WorkloadConfig(impl="list-depq", ops_per_thread=1, seed=rng.getrandbits(32))
    result = WindowResult(setup_s=0.0, wall_s=0.0, calls=0)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        outcome = run_stress(cfg, windows=1,
                             _target_factory=lambda c: _WindowTarget(c, result))
    except Exception:
        result.problems.append(traceback.format_exc())
        outcome = None
    finally:
        result.wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    result.calls = len(result.insert_ns) + len(result.extract_ns)
    if outcome is not None and outcome.windows[0].verdict is not Verdict.LINEARIZABLE:
        result.problems.append(f"window seed {cfg.seed}: {outcome.windows[0].verdict.value}")
    return result

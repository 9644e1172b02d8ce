"""Layer microbenchmarks of the per-end serializers, in both modes.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_noop_announce`` times one uncontended ``announce`` whose request does
nothing: the cost of the serializer alone.  ``test_uncontended_extraction``
times one ``ListDepq`` extraction (epoch reclamation, ends alternating) at
1000 live keys; an untimed insert before each round keeps the count there.

``test_contended_announce`` runs 1, 2 or 4 announcer threads at one end,
with no inserters, under a switch interval fixed at ``SWITCH_INTERVAL_S``.
A round is ``PER_ANNOUNCER`` no-op announces by each announcer, started
and awaited over two barriers; the threads live for the whole test, so it
starts at most 4.  A timed run records in ``extra_info`` the median round
divided by its requests, ``us_per_request``, and the serializer's batch
histogram over every round, ``batch_sizes``, with its mean, ``batch_mean``.
"""

import itertools
import random
import sys
import threading

import pytest

from depq.combining import MODES, make_serializer
from depq.list_depq import ListDepq
from depq.reclaim import EPOCH

KEYS = 1000
PER_ANNOUNCER = 2000
SWITCH_INTERVAL_S = 1e-5     # as the tests' ``fast_switching``: at 5 ms no batch forms


@pytest.mark.parametrize("mode", MODES)
def test_noop_announce(benchmark, mode):
    serializer = make_serializer(mode, lambda request: request)
    assert benchmark(serializer.announce, 1) == 1


@pytest.mark.parametrize("mode", MODES)
def test_uncontended_extraction(benchmark, mode):
    d = ListDepq(mode=mode, reclaim_mode=EPOCH)
    rng = random.Random(7)
    for key in rng.sample(range(1 << 20), KEYS - 1):
        d.insert(key)
    ends = itertools.cycle((d.extract_min, d.extract_max))

    def refill():
        d.insert(rng.randrange(1 << 20))

    def extract():
        return next(ends)()

    benchmark.pedantic(extract, setup=refill, rounds=20_000, warmup_rounds=200)
    assert len(d.remaining_keys()) == KEYS - 1
    assert d.audit(0).ok and d.audit(1).ok
    d.close()


@pytest.mark.parametrize("announcers", [1, 2, 4])
@pytest.mark.parametrize("mode", MODES)
def test_contended_announce(benchmark, mode, announcers):
    serializer = make_serializer(mode, lambda request: request)
    start = threading.Barrier(announcers + 1, timeout=60)
    done = threading.Barrier(announcers + 1, timeout=60)

    def announcer():
        try:
            while True:
                start.wait()
                for request in range(PER_ANNOUNCER):
                    serializer.announce(request)
                done.wait()
        except threading.BrokenBarrierError:
            return                      # the test is over, or another announcer failed
        except BaseException:
            start.abort()               # fail the round now, not at a barrier's timeout
            done.abort()
            raise

    def round_():
        start.wait()
        done.wait()

    threads = [threading.Thread(target=announcer, daemon=True) for _ in range(announcers)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        for thread in threads:
            thread.start()
        benchmark.pedantic(round_, rounds=40, warmup_rounds=2)
    finally:
        start.abort()
        done.abort()
        for thread in threads:
            thread.join(timeout=10)
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    snap = serializer.stats.snapshot()
    assert snap["applied"] % (announcers * PER_ANNOUNCER) == 0
    benchmark.extra_info["batch_sizes"] = snap["batch_sizes"]
    benchmark.extra_info["batch_mean"] = round(snap["applied"] / snap["batches"], 3)
    if benchmark.stats is not None:     # None under --benchmark-disable
        benchmark.extra_info["us_per_request"] = (
            benchmark.stats.stats.median / (announcers * PER_ANNOUNCER) * 1e6)

"""Layer microbenchmarks of the per-end serializers, in both modes.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_noop_announce`` times one uncontended ``announce`` whose request does
nothing: the cost of the serializer alone.  ``test_uncontended_extraction``
times one ``ListDepq`` extraction (epoch reclamation, ends alternating) at
1000 live keys; an untimed insert before each round keeps the count there.
"""

import itertools
import random

import pytest

from depq.combining import MODES, make_serializer
from depq.list_depq import ListDepq
from depq.reclaim import EPOCH

KEYS = 1000


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

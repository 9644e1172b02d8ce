"""Microbenchmarks of building an empty queue.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

Each test times one construction of an empty build: ``ListDepq()`` in its
default (deferred) reclaim mode, ``ListDepq`` with epoch reclamation, and
the ``dual-heap`` build through the workload table.  The benchmark's
``verify`` workload builds one queue per window, so this is the part of
its ``setup_s`` the queue itself costs.  Only the public API is used.
"""

from depq.list_depq import ListDepq
from depq.reclaim import EPOCH
from depq.workload import BUILDS, WorkloadConfig


def test_list_depq(benchmark):
    assert benchmark(ListDepq).remaining_keys() == []


def test_list_depq_epoch(benchmark):
    assert benchmark(ListDepq, reclaim_mode=EPOCH).remaining_keys() == []


def test_dual_heap(benchmark):
    cfg = WorkloadConfig(impl="dual-heap")
    assert benchmark(BUILDS["dual-heap"], cfg).remaining_keys() == []

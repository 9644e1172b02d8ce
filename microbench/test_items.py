"""Layer microbenchmarks of ``Arena.new_item`` and ``AtomicCell``.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_new_item`` times ``Arena.new_item`` calls, ``ITERATIONS`` to a
round, on an arena that grows by one item per call.  It records in
``extra_info["bytes_per_item"]`` the memory that ``BYTES_ITEMS`` calls
allocate per item on a fresh arena, as ``tracemalloc`` counts it (the
arena's slot included).  ``test_cell``
times one uncontended ``AtomicCell`` operation, ``CELL_ITERATIONS`` to a
round, with no trace controller installed: a ``load``, a
``compare_and_swap`` that succeeds, and a ``fetch_or``; none changes the
cell's value.  Only the public API is used.
"""

import tracemalloc

import pytest

from depq.atomics import AtomicCell
from depq.items import Arena

ROUNDS = 20_000
ITERATIONS = 10
CELL_ITERATIONS = 100
BYTES_ITEMS = 10_000


def bytes_per_item() -> float:
    arena = Arena()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key in range(BYTES_ITEMS):
            arena.new_item(key)
        return (tracemalloc.get_traced_memory()[0] - before) / BYTES_ITEMS
    finally:
        tracemalloc.stop()


def test_new_item(benchmark):
    benchmark.extra_info["bytes_per_item"] = round(bytes_per_item(), 1)
    arena = Arena()
    benchmark.pedantic(arena.new_item, args=(5,), rounds=ROUNDS // ITERATIONS,
                       iterations=ITERATIONS, warmup_rounds=20)
    assert arena.item(len(arena) - 1).key.user_key == 5


@pytest.mark.parametrize("op, args", [("load", ()), ("compare_and_swap", (7, 7)),
                                      ("fetch_or", (1,))],
                         ids=["load", "compare_and_swap", "fetch_or"])
def test_cell(benchmark, op, args):
    cell = AtomicCell(7)
    benchmark.pedantic(getattr(cell, op), args=args, rounds=ROUNDS // CELL_ITERATIONS,
                       iterations=CELL_ITERATIONS, warmup_rounds=2)
    assert cell.load() == 7

"""Counters: exact per-thread sums under real threads."""

import sys
import threading
from collections import Counter

from depq.atomics import Counters

THREADS = 4
PER_THREAD = 20_000


def _increments(seed):
    """One thread's mixed increments: (kind, field, slot) triples."""
    out = []
    for i in range(PER_THREAD):
        roll = (i * 7 + seed) % 3
        if roll == 0:
            out.append(("add", "hits", None))
        elif roll == 1:
            out.append(("add_at", "per_end", (i + seed) % 2))
        else:
            out.append(("add_at", "sizes", (i * seed) % 5 + 1))
    return out


def _apply(counters, plan):
    for kind, name, slot in plan:
        if kind == "add":
            counters.add(name)
        else:
            counters.add_at(name, slot)


def test_totals_are_exact_under_real_threads():
    counters = Counters(hits=0, per_end=[0, 0], sizes={})
    plans = [_increments(seed) for seed in range(1, THREADS + 1)]
    start = threading.Barrier(THREADS)

    def work(plan):
        start.wait()
        _apply(counters, plan)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(plan,)) for plan in plans]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)

    steps = [step for plan in plans for step in plan]
    per_end = Counter(slot for _, name, slot in steps if name == "per_end")
    sizes = Counter(slot for _, name, slot in steps if name == "sizes")
    assert counters.snapshot() == {
        "hits": sum(1 for _, name, _ in steps if name == "hits"),
        "per_end": [per_end[0], per_end[1]],
        "sizes": dict(sorted(sizes.items())),
    }
    assert sum(per_end.values()) > 0 and len(sizes) == 5


def test_counts_survive_their_thread():
    counters = Counters(hits=0, per_end=[0, 0], sizes={})
    for n in (3, 4):   # the second thread may reuse the first one's ident
        t = threading.Thread(target=lambda: (counters.add("hits", n),
                                             counters.add_at("per_end", 1),
                                             counters.add_at("sizes", n)))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    counters.add("hits")
    assert counters.snapshot() == {"hits": 8, "per_end": [0, 2], "sizes": {3: 1, 4: 1}}


def test_snapshot_before_any_increment_is_all_zero():
    counters = Counters(hits=0, per_end=[0, 0], sizes={})
    assert counters.snapshot() == {"hits": 0, "per_end": [0, 0], "sizes": {}}


def test_snapshot_copies_single_writer_lists():
    marks = [0, 0]
    counters = Counters(hits=0, single_writer={"marks": marks})
    marks[1] += 2
    counters.add("hits")
    snap = counters.snapshot()
    assert snap == {"hits": 1, "marks": [0, 2]}
    marks[0] += 1
    assert snap["marks"] == [0, 2]   # a copy, not the live list

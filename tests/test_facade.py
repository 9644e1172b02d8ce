"""The surface every build answers the harness through: ``remaining_keys``,
``problems``, ``stats`` and ``close``."""

import pytest
from helpers import run_on_plain_threads

from depq import workload
from depq.combining import MODES
from depq.items import MARKED, MIN, pack_link
from depq.list_depq import ListDepq
from depq.reclaim import DEFERRED, EPOCH
from depq.workload import IMPLS, WorkloadConfig, run_bench

STATS_KEYS = {"reserve_failures", "extract_successes", "insert_cas_failures",
              "retired", "batch_sizes"}
#: The keys ``benchmarks/depqbench/targets.py`` reads off each build's
#: ``counters.snapshot()``.
TARGET_KEYS = {"list-depq": {"extract_successes", "marks", "insert_cas_failures"},
               "dual-heap": {"extract_successes", "reserve_failures"}}


def build(impl):
    return workload.BUILDS[impl](WorkloadConfig(impl=impl))


@pytest.fixture
def captured(monkeypatch):
    """Builds made by the harness, kept open after ``run_bench`` is done."""
    builds = []

    def capturing(make):
        def make_and_keep(cfg):
            depq = make(cfg)
            builds.append((depq, depq.close))
            depq.close = lambda: None
            return depq
        return make_and_keep

    for impl, make in list(workload.BUILDS.items()):
        monkeypatch.setitem(workload.BUILDS, impl, capturing(make))
    yield builds
    for _, close in builds:
        close()


@pytest.mark.parametrize("impl", IMPLS)
def test_real_thread_run_passes_through_the_surface(captured, impl):
    cfg = WorkloadConfig(impl=impl, threads_insert=2, threads_min=2, threads_max=2,
                         prefill=50, key_range=64, ops_per_thread=300, seed=17)
    report = run_bench(cfg)
    [(depq, _)] = captured
    # accounting_ok is inserted == returned + remaining_keys().
    assert report.accounting_ok and report.audit_ok and report.notes == []
    assert depq.problems() == []
    stats = depq.stats()
    own = {"marks"} if impl == "list-depq" else set()
    assert set(stats) == STATS_KEYS | own
    assert len(stats["reserve_failures"]) == 2
    assert sum(stats["reserve_failures"]) == report.retries["failed_reserve"]
    assert stats["insert_cas_failures"] == report.retries["failed_insert_cas"]
    assert stats["retired"] == report.retired_nodes
    # Every extraction call is one request served by its end's serializer.
    served = sum(size * n for size, n in stats["batch_sizes"].items())
    assert served == report.ops["extract_min"] + report.ops["extract_max"]


SURFACES = ([("list-depq", mode, reclaim_mode) for mode in MODES
             for reclaim_mode in (DEFERRED, EPOCH)]
            + [("dual-heap", mode, DEFERRED) for mode in MODES])


@pytest.mark.parametrize("impl, mode, reclaim_mode", SURFACES)
def test_counters_are_a_view_of_stats(captured, monkeypatch, fast_switching,
                                      impl, mode, reclaim_mode):
    # ``marked`` counts the nodes each end's sweeps unlinked: one per node
    # that end's pops marked, since each pop is swept before the next; each
    # end's pops run one at a time, behind its serializer.
    marked = [0, 0]
    make = workload.BUILDS[impl]

    def counting_sweeps(cfg):
        depq = make(cfg)
        if impl == "list-depq":
            sweep = depq.lists.sweep_head

            def counted(end):
                removed = sweep(end)
                marked[end] += len(removed)
                return removed
            depq.lists.sweep_head = counted
        return depq

    monkeypatch.setitem(workload.BUILDS, impl, counting_sweeps)
    cfg = WorkloadConfig(impl=impl, mode=mode, reclaim_mode=reclaim_mode,
                         threads_insert=2, threads_min=2, threads_max=2,
                         prefill=20, key_range=64, ops_per_thread=150, seed=29)
    report = run_bench(cfg)
    [(depq, _)] = captured
    assert report.accounting_ok and report.audit_ok
    stats = depq.stats()
    assert depq.counters.snapshot() == stats
    assert depq.inner.counters.snapshot() == depq.inner.stats()
    read = (depq if impl == "list-depq" else depq.inner).counters.snapshot()
    assert TARGET_KEYS[impl] <= set(read)
    if impl == "list-depq":
        assert sum(marked) > 0 and stats["marks"] == marked


def test_corrupted_heap_is_reported():
    depq = build("dual-heap")
    for key in range(8):
        depq.insert(key)
    assert depq.problems() == []
    heap = depq.inner.min_pq._heap
    heap[0], heap[-1] = heap[-1], heap[0]
    assert depq.problems()


@pytest.mark.parametrize("impl", ["list-depq"])
def test_live_node_tagged_deleted_is_reported(impl):
    depq = build(impl)
    for key in range(8):
        depq.insert(key)
    assert depq.extract_min() == 0
    assert depq.problems() == []
    pair = depq.lists
    pair.arena.state[pair.suffix(MIN)[3]] |= MARKED[MIN]
    problems = depq.problems()
    assert problems and "deleted nodes form a prefix" in problems[0]
    depq.close()


def test_a_cyclic_list_fails_fast_and_loudly(monkeypatch):
    # The walks run on daemon threads, so one that never ends fails the test
    # after 5 s instead of hanging the suite; ``finally`` then ends it.
    made = []

    def cyclic(cfg=None):
        """A 5-key list-depq whose last MIN link points back at its first
        live node, so the MIN list never ends."""
        depq = ListDepq()
        for key in range(5):
            depq.insert(key)
        first, *_, last = depq.lists.suffix(MIN)
        words = depq.arena.links[MIN]
        words[last] = pack_link(first, 0)
        made.append((words, last))
        return depq

    cycle = "min list walk exceeds the arena size: cycle suspected"
    try:
        depq = cyclic()
        assert "[FAIL] finite list" in depq.problems()[0]

        def raised_by(walk):
            def run():
                with pytest.raises(AssertionError) as raised:
                    walk()
                return str(raised.value)
            return run

        assert run_on_plain_threads(raised_by(depq.remaining_keys),
                                    raised_by(lambda: depq.lists.walk(MIN)),
                                    timeout=5.0) == [cycle, cycle]
        monkeypatch.setitem(workload.BUILDS, "list-depq", cyclic)
        cfg = WorkloadConfig(impl="list-depq", threads_insert=0, threads_min=0,
                             threads_max=1, ops_per_thread=1)
        [report] = run_on_plain_threads(lambda: run_bench(cfg), timeout=5.0)
        assert not report.audit_ok and not report.accounting_ok
        assert "[FAIL] finite list" in report.notes[0] and report.notes[-1] == cycle
    finally:
        for words, last in made:
            words[last] = 0   # no successor: the list ends again


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("impl", IMPLS)
def test_per_end_success_counts_match_the_report(captured, impl, mode, fast_switching):
    # The prefill outlasts every extraction, so each call returns a key and
    # each end's successes must equal its calls, with two threads per end
    # taking turns at the end's single-writer counts.
    cfg = WorkloadConfig(impl=impl, mode=mode, threads_insert=2, threads_min=2,
                         threads_max=2, prefill=1200, ops_per_thread=300, seed=23)
    report = run_bench(cfg)
    [(depq, _)] = captured
    successes = depq.inner.counters.snapshot()["extract_successes"]
    assert successes == [report.ops["extract_min"], report.ops["extract_max"]]
    assert report.accounting_ok and report.audit_ok


def test_list_depq_reports_its_pairs_cas_failures():
    depq = build("list-depq")
    depq.lists.insert_cas_failures = 3
    assert depq.stats()["insert_cas_failures"] == 3
    assert depq.counters.snapshot()["insert_cas_failures"] == 3


def test_list_depq_bench_reports_the_pairs_counter(captured):
    report = run_bench(WorkloadConfig(impl="list-depq", threads_insert=3,
                                      ops_per_thread=400, seed=5))
    [(depq, _)] = captured
    assert report.retries["failed_insert_cas"] == depq.lists.insert_cas_failures

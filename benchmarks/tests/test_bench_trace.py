"""Self-time arithmetic and the span wrappers of the traced run."""

import threading

from depq.atomics import AtomicCell
from depq.list_depq import ListDepq
from depq.ordered_list import ListPair
from depq.reclaim import EPOCH
from depqbench.trace import NO_VALUE, Tracer, layer_times, value_sums


def span(sid, parent, layer, start, end, wait=0, thread=0, value=NO_VALUE):
    return (sid, parent, layer, thread, start, end, wait, value)


def test_self_time_on_a_synthetic_tree():
    spans = [
        # thread 0:  a [0,100) holds b [10,40) and d [50,90); b holds c [15,25).
        span(3, 2, "c", 15, 25),
        span(2, 1, "b", 10, 40, wait=5),
        span(4, 1, "d", 50, 90, wait=10, value=7),
        span(1, 0, "a", 0, 100),
        # thread 1: a second, unrelated call of layer a, overlapping in time.
        span(5, 0, "a", 20, 60, thread=1, value=3),
    ]
    times = layer_times(spans)
    assert times["a"] == (2, 100 + 40, (100 - 30 - 40) + 40)
    assert times["b"] == (1, 30, 30 - 10 - 5)
    assert times["c"] == (1, 10, 10)
    assert times["d"] == (1, 40, 40 - 10)
    assert value_sums(spans) == {"d": 7, "a": 3}


def test_install_records_nested_spans_and_uninstall_restores():
    originals = (ListDepq.insert, ListPair.insert, AtomicCell.fetch_add)
    tracer = Tracer()
    tracer.install()
    try:
        depq = ListDepq(reclaim_mode=EPOCH)
        for key in (5, 1, 9):
            depq.insert(key)
        assert depq.extract_min() == 1
        assert depq.extract_max() == 9
    finally:
        tracer.uninstall()
    assert (ListDepq.insert, ListPair.insert, AtomicCell.fetch_add) == originals

    spans = tracer.spans()
    by_id = {s[0]: s for s in spans}
    inserts = [s for s in spans if s[2] == "list_depq.insert"]
    assert len(inserts) == 3 and all(s[1] == 0 for s in inserts)
    list_inserts = [s for s in spans if s[2] == "ordered_list.insert"]
    assert len(list_inserts) == 6
    assert all(by_id[s[1]][2] == "list_depq.insert" for s in list_inserts)
    sweeps = [s for s in spans if s[2] == "ordered_list.sweep_head"]
    assert sum(s[7] for s in sweeps) >= 0 and all(s[7] != NO_VALUE for s in sweeps)
    times = layer_times(spans)
    assert times["list_depq.extract"][0] == 2
    assert all(0 <= self_ns <= total for _calls, total, self_ns in times.values())
    rmw, unsited, parked = tracer.totals()
    assert rmw > unsited > 0 and parked == 0


def test_spans_of_threads_stay_separate():
    tracer = Tracer()
    depq = ListDepq()
    tracer.install()
    try:
        threads = [threading.Thread(target=lambda k=k: [depq.insert(k * 100 + i)
                                                         for i in range(50)])
                   for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    by_id = {s[0]: s for s in spans}
    assert len([s for s in spans if s[2] == "list_depq.insert"]) == 100
    assert all(by_id[s[1]][3] == s[3] for s in spans if s[1])

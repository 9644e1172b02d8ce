"""Spans around calls into each layer of depq, for the traced run only.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
wrapper that records one span per call: an id, the id of the enclosing
traced call on the same thread (0 at the top), the layer, the thread,
start and end in nanoseconds, the time the call itself spent parked in the
stepping scheduler, and for a few functions a value read off the result.
It also counts ``AtomicCell`` read-modify-writes per thread.  ``uninstall``
puts the originals back.  Spans stay in memory and are written as JSONL
when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from collections import defaultdict

from depq import lincheck, workload
from depq.atomics import AtomicCell
from depq.combining import Combiner
from depq.dual_depq import DualDepq
from depq.items import Arena
from depq.list_depq import ListDepq
from depq.oracle import LockedHeapPq
from depq.ordered_list import ListPair
from depq.reclaim import Reclaimer
from depq.sched import ControlledScheduler

# layer name -> the (owner, attribute) pairs wrapped under that name.
LAYERS: dict[str, list[tuple[object, str]]] = {
    "list_depq.insert": [(ListDepq, "insert")],
    "list_depq.extract": [(ListDepq, "extract_min"), (ListDepq, "extract_max")],
    "items.new_item": [(Arena, "new_item")],
    "ordered_list.insert": [(ListPair, "insert")],
    "ordered_list.extract_first": [(ListPair, "extract_first")],
    "ordered_list.sweep_head": [(ListPair, "sweep_head")],
    "combining.announce": [(Combiner, "announce")],
    "reclaim.enter": [(Reclaimer, "enter")],
    "reclaim.exit": [(Reclaimer, "exit")],
    "reclaim.on_unlink": [(Reclaimer, "on_unlink")],
    "reclaim.try_advance": [(Reclaimer, "try_advance")],
    "dual_depq.insert": [(DualDepq, "insert")],
    "dual_depq.extract": [(DualDepq, "extract_min"), (DualDepq, "extract_max")],
    "oracle.pq_insert": [(LockedHeapPq, "pq_insert")],
    "oracle.pq_extract_first": [(LockedHeapPq, "pq_extract_first")],
    "sched.drive": [(ControlledScheduler, "drive")],
    # ``workload`` imported ``check`` by name, so both bindings are wrapped.
    "lincheck.check": [(lincheck, "check"), (workload, "check")],
}
LAYER_NAMES = list(LAYERS)
# Layers whose result yields a value worth summing.
RESULT_VALUES = {
    "ordered_list.sweep_head": len,                 # nodes unlinked
    "reclaim.try_advance": int,                     # 1 if the epoch advanced
    "lincheck.check": lambda r: r.states_explored,
}
# AtomicCell read-modify-writes and the position of their ``site`` argument.
RMW_METHODS = {"swap": 1, "compare_and_swap": 2, "fetch_or": 1, "fetch_add": 1}

SPAN_FIELDS = ("id", "parent", "layer", "thread", "start_ns", "end_ns", "wait_ns", "value")
NO_VALUE = -1


class Tracer:
    def __init__(self) -> None:
        # One span is len(SPAN_FIELDS) consecutive entries; the layer is an
        # index into LAYER_NAMES.  A flat array keeps a long trace small.
        self._spans = array("q")
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list[int]] = []   # per thread: [rmw, unsited rmw, wait ns]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, places in LAYERS.items():
            for owner, attr in places:
                self._patch(owner, attr, self._span(layer, getattr(owner, attr)))
        for attr, site_pos in RMW_METHODS.items():
            self._patch(AtomicCell, attr, self._counted(getattr(AtomicCell, attr), site_pos))
        self._patch(ControlledScheduler, "pause", self._parked(ControlledScheduler.pause))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _thread(self):
        """This thread's (stack of [span id, wait ns] frames, counters, index)."""
        local = self._local
        try:
            return local.stack, local.counts, local.index
        except AttributeError:
            local.stack, local.counts = [], [0, 0, 0]
            with self._lock:
                local.index = len(self._threads)
                self._threads.append(local.counts)
            return local.stack, local.counts, local.index

    def _span(self, layer: str, fn):
        layer_index = LAYER_NAMES.index(layer)
        read_value = RESULT_VALUES.get(layer)
        ids, spans, clock = self._ids, self._spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, _counts, thread = self._thread()
            frame = [next(ids), 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                value = NO_VALUE if read_value is None or out is None else read_value(out)
                # One C call, so spans of different threads never interleave.
                spans.extend((frame[0], parent, layer_index, thread, start, end,
                              frame[1], value))
        return traced

    def _counted(self, fn, site_pos: int):
        @functools.wraps(fn)
        def counted(cell, *args, **kwargs):
            counts = self._thread()[1]
            counts[0] += 1
            if kwargs.get("site", args[site_pos] if len(args) > site_pos else None) is None:
                counts[1] += 1
            return fn(cell, *args, **kwargs)
        return counted

    def _parked(self, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def parked(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                waited = clock() - start
                stack, counts, _thread = self._thread()
                counts[2] += waited
                if stack:
                    stack[-1][1] += waited
        return parked

    # -- results -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans) // len(SPAN_FIELDS)

    def spans(self) -> "SpanView":
        return SpanView(self._spans)

    def totals(self) -> tuple[int, int, int]:
        """(read-modify-writes, those passing no site, ns parked) while installed."""
        with self._lock:
            return tuple(sum(c[i] for c in self._threads) for i in range(3))

    def write_jsonl(self, path) -> None:
        """A header line naming the fields, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write('{"fields": [%s]}\n' % ", ".join(f'"{f}"' for f in SPAN_FIELDS))
            for sid, parent, layer, thread, start, end, wait, value in self.spans():
                fh.write(f'[{sid},{parent},"{layer}",{thread},{start},{end},{wait},{value}]\n')


class SpanView:
    """The spans as tuples in SPAN_FIELDS order, layers by name; each
    iteration decodes the flat array afresh instead of holding tuples."""

    def __init__(self, flat: array):
        self._flat = flat

    def __iter__(self):
        flat, width = self._flat, len(SPAN_FIELDS)
        for i in range(0, len(flat), width):
            sid, parent, layer, *rest = flat[i:i + width]
            yield (sid, parent, LAYER_NAMES[layer], *rest)


def layer_times(spans) -> dict[str, tuple[int, int, int]]:
    """Per layer: (calls, total ns, self ns).

    A span's self time is its duration minus the durations of the spans
    whose parent it is, minus the time it spent parked in the stepping
    scheduler outside them.  Parents are tracked per thread, so children
    are nested inside their parent and never overlap one another.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, parent, _layer, _thread, start, end, _wait, _value in spans:
        if parent:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for sid, _parent, layer, _thread, start, end, wait, _value in spans:
        row = out[layer]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns.get(sid, 0) - wait
    return {layer: tuple(row) for layer, row in out.items()}


def value_sums(spans) -> dict[str, int]:
    """Per layer that reads a value off its results: the sum of the values."""
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        if span[7] != NO_VALUE:
            out[span[2]] += span[7]
    return dict(out)

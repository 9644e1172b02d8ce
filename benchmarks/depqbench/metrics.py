"""End-to-end and per-layer metrics, derived from a run's rounds.

Every metric is ``name -> (value, unit, samples)``.  End-to-end metrics
come from untraced rounds; per-layer metrics from traced rounds, their
spans and the build counters read at the end of each round.
"""

from __future__ import annotations

import math
import resource
import statistics
from collections import Counter

from .trace import LAYERS, Tracer, layer_times, value_sums

QUANTILES = (0.50, 0.75)
END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "insert_p50_us": "us", "insert_p75_us": "us",
    "extract_p50_us": "us", "extract_p75_us": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of sorted samples; 0 when there are none."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def throughput(rounds, scaled: bool = True) -> float:
    """Median over rounds of calls per second (at reference speed if scaled)."""
    return statistics.median(r.calls / (r.wall_s * (r.scale if scaled else 1.0))
                             for r in rounds)


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency(rounds, kind: str, q: float, scaled: bool = True) -> tuple[float, int]:
    """Percentile ``q`` of one call kind's latency, in microseconds.

    Queue rounds are large and carry their own percentiles; the run reports
    their median.  The short windows of ``verify`` carry their samples,
    which are pooled.
    """
    def at(us: float, r) -> float:
        return us * r.scale if scaled else us

    if all(r.latency_us for r in rounds):
        return (statistics.median(at(r.latency_us[kind][q], r) for r in rounds),
                sum(r.samples[kind] for r in rounds))
    pooled = sorted(at(ns / 1e3, r) for r in rounds for ns in getattr(r, kind))
    return percentile(pooled, q), len(pooled)


def end_to_end(rounds, scaled: bool = True) -> dict[str, tuple[float, str, int]]:
    """The end-to-end metrics, times at reference speed unless ``scaled`` is off."""
    rss = peak_rss_mib()
    values = {
        "throughput_ops_s": (throughput(rounds, scaled), len(rounds)),
        "insert_p50_us": latency(rounds, "insert_ns", 0.50, scaled),
        "insert_p75_us": latency(rounds, "insert_ns", 0.75, scaled),
        "extract_p50_us": latency(rounds, "extract_ns", 0.50, scaled),
        "extract_p75_us": latency(rounds, "extract_ns", 0.75, scaled),
        "setup_s": (statistics.median(r.setup_s * (r.scale if scaled else 1.0) for r in rounds),
                    len(rounds)),
        "peak_rss_mib": (rss, 1),
    }
    return {name: (value, END_TO_END_UNITS[name], n) for name, (value, n) in values.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced, tracer: Tracer, plain_throughput: float
              ) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of the traced rounds; absent layers read 0."""
    spans = tracer.spans()
    times = layer_times(spans)
    values = value_sums(spans)
    op_ns = sum(r.op_ns for r in traced)
    out: dict[str, tuple[float, str, int]] = {}
    for layer in LAYERS:
        calls, total_ns, self_ns = times.get(layer, (0, 0, 0))
        out[f"{layer}.calls"] = (calls, "count", calls)
        out[f"{layer}.us"] = (_ratio(total_ns, calls) / 1e3, "us", calls)
        out[f"{layer}.self_us"] = (_ratio(self_ns, calls) / 1e3, "us", calls)
        out[f"{layer}.share"] = (_ratio(self_ns, op_ns), "ratio", calls)

    def calls_of(layer: str) -> int:
        return times.get(layer, (0, 0, 0))[0]

    c: Counter = Counter()
    for r in traced:
        c.update(r.layer)
    n = len(traced)
    ops = sum(r.calls for r in traced)
    rmw, unsited, parked_ns = tracer.totals()
    counts = {
        "atomics.rmw_per_op": (_ratio(rmw, ops), "count", ops),
        "atomics.unsited_rmw_per_op": (_ratio(unsited, ops), "count", ops),
        "ordered_list.insert_cas_failures": (c["insert_cas_failures"], "count", n),
        "ordered_list.claim_ratio": (_ratio(c["list_extracts"], c["list_marks"]), "ratio",
                                     c["list_marks"]),
        "ordered_list.sweep_nodes": (
            _ratio(values.get("ordered_list.sweep_head", 0),
                   calls_of("ordered_list.sweep_head")), "count",
            calls_of("ordered_list.sweep_head")),
        "ordered_list.list_len_end": (_ratio(c["list_nodes"], c["lists"]), "count", c["lists"]),
        "ordered_list.zombie_share_end": (_ratio(c["list_zombies"], c["list_nodes"]), "ratio",
                                          c["lists"]),
        "combining.batch_mean": (_ratio(c["applied"], c["batches"]), "count", c["batches"]),
        "combining.batches": (c["batches"], "count", n),
        "reclaim.retired_per_extract": (_ratio(c["retired"], c["list_extracts"]), "ratio",
                                        c["list_extracts"]),
        "reclaim.freed": (c["freed"], "count", n),
        "reclaim.pending_end": (_ratio(c["pending"], n), "count", n),
        "reclaim.advance_ratio": (
            _ratio(values.get("reclaim.try_advance", 0), calls_of("reclaim.try_advance")),
            "ratio", calls_of("reclaim.try_advance")),
        "dual_depq.claim_ratio": (
            _ratio(c["dual_claims"], c["dual_claims"] + c["dual_claim_failures"]), "ratio",
            c["dual_claims"] + c["dual_claim_failures"]),
        "oracle.heap_len_end": (_ratio(c["heap_entries"], c["heaps"]), "count", c["heaps"]),
        "oracle.stale_share_end": (_ratio(c["heap_stale"], c["heap_entries"]), "ratio",
                                   c["heaps"]),
        "sched.parked_threads": (_ratio(parked_ns, op_ns), "count", n),
        "lincheck.states": (_ratio(values.get("lincheck.check", 0), calls_of("lincheck.check")),
                            "count", calls_of("lincheck.check")),
        "trace.overhead_ratio": (_ratio(plain_throughput, throughput(traced)) - 1.0, "ratio", n),
    }
    out.update(counts)
    return out

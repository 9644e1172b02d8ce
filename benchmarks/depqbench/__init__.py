"""Benchmark of the depq builds: closed-loop queue workloads, checked
stress windows, and a traced per-layer breakdown.  Run it through
``benchmarks/run.py``; see ``benchmarks/README.md``."""

"""Benchmark harness for mtforge: fixed-seed workloads, output checks and
per-layer tracing, driven from outside the package. See README.md."""

"""Benchmark for catgen: workloads, tracing and metrics (run it with run.py)."""

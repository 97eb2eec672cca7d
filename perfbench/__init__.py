"""Benchmark for fsmcap: seeded workloads, reference checks and a tracer.

See perfbench/README.md; the entry point is perfbench/run.py.
"""

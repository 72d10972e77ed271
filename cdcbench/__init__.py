"""Benchmark of the `cdc` pipelines: end-to-end timings and per-layer spans.

Run ``python3 cdcbench/run.py --help`` from the repository root.
"""

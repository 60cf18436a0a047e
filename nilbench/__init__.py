"""Benchmark of the nilcent engine: cold-process passes over fixed sets of
compositions, with an optional traced pass for per-layer numbers.

Entry point: ``python3 nilbench/run.py``; see nilbench/README.md.
"""

"""The repository's benchmark: workloads, layer tracing and output checks.

Run it from the repository root with ``python3 perfbench/run.py --help``.
"""

"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run it with ``python bench/run.py``; see ``bench/README.md``.
"""

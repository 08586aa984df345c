"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-frontier --seed 1 --seconds 12 --trace 0

See ``perfbench/README.md`` for the workloads, the metric definitions and
which per-layer metric should move which end-to-end metric.
"""

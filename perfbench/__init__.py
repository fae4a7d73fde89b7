"""The Kairos benchmark: four seeded workloads, checked outputs, a traced per-layer run.

See ``perfbench/README.md``; run it with ``python3 perfbench/run.py``.
"""

"""The repository's benchmark: three seeded workloads, timed end to end
and split by layer.  Entry point: ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the metric definitions."""

"""The repo's one benchmark: four closed-loop workloads over the serving stack.

See ``bench/README.md`` for the workload and metric catalogue and
``BENCHMARK.json`` at the repo root for the contract the numbers are held to.
"""

"""End-to-end benchmark of the EMAP serving stack.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a source checkout
and prints one JSON result as its last line; ``BENCHMARK.json`` at the
repository root lists the workloads and metrics.  See ``run.py``.
"""

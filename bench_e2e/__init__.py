"""bench_e2e — one hum in, one ranked answer out.

The repository's benchmark: a seeded hum traffic mix driven through the
store-backed index and the serving tier, checked against a brute-force
oracle, with every layer timed from outside through its public calls.
``BENCHMARK.json`` at the repository root is the contract (workloads,
metric names, units, bounds); ``bench_e2e/README.md`` explains how the
metrics relate and how to compare two commits.

Run ``python3 -m bench_e2e --help`` from the repository root.
"""

import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Everything a run writes goes here (ignored by git).
OUT_DIR = os.path.join(HERE, "out")

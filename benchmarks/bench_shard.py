"""Sharded-serving benchmark — throughput scaling across shard counts.

Closed-loop load test of :class:`repro.serve.QBHService` backed by the
multi-process shard tier (:mod:`repro.shard`), against the same service
serving from a single in-process engine (the PR-5 baseline).  The GIL
caps the single-process service at roughly one core of kernel time;
the shard tier exists to turn additional cores into additional
throughput, and this benchmark records how well it does.

The result cache is disabled for the scaling runs: the Zipf workload's
repeats would otherwise be answered from memory and the measurement
would say nothing about kernel scaling.

Asserted in-test:

* results at every shard count are **byte-identical** to direct
  single-engine dispatch (per-request SHA-1 digests) — always, at any
  scale, on any machine;
* every request completes ``ok`` — a worker fleet must not shed or
  fail under plain load;
* on a machine with >= 4 cores at full scale, throughput at the
  core-count shard level must reach **2.5x** the unsharded service and
  per-shard efficiency at 4 shards must stay above **60%** (the
  tentpole acceptance gates); with 2-3 cores a conservative 1.2x
  non-regression gate applies.  Single-core machines and smoke runs
  record the scaling curve without gating it — there is nothing to
  scale onto.

Writes ``BENCH_shard.json`` at the repo root (with a ``scaling``
section validated by ``tools/check_bench_schema.py``) and appends one
entry to ``BENCH_history.jsonl`` for the ``repro perf check`` gate.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.serve import QBHService
from repro.serve.loadgen import (
    direct_dispatch,
    parity_mismatches,
    run_load,
    service_dispatch,
    zipf_workload,
)

from _harness import print_series, record_history

CLIENTS = 8
ZIPF_S = 1.3
KNN_K = 5
EPSILON = 4.0

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard.json"


def _workload(scale):
    if scale.name == "smoke":
        corpus_size, length, total, pool = 200, 64, 64, 16
    else:
        corpus_size, length, total, pool = 800, 128, 160, 32
    corpus = random_walks(corpus_size, length, seed=61)
    rng = np.random.default_rng(62)
    queries = [corpus[i % corpus_size] + 0.15 * rng.normal(size=length)
               for i in range(pool)]
    specs = zipf_workload(total, pool, s=ZIPF_S, seed=63,
                          kinds=("knn", "range"), knn_k=KNN_K,
                          epsilon=EPSILON)
    engine = QueryEngine(list(corpus), delta=0.1)
    return engine, specs, queries, {
        "corpus_size": corpus_size, "length": length,
        "requests": total, "pool": pool,
    }


def _serve_run(engine, specs, queries, shards):
    """One fresh (possibly sharded) service, one closed-loop pass."""
    service = QBHService.from_engine(engine, shards=shards, cache_size=0)
    try:
        report = run_load(service_dispatch(service), specs, queries,
                          clients=CLIENTS, mode=f"shards-{shards}")
        report.saturation = service.saturation()
    finally:
        service.close()
    return report


@pytest.mark.benchmark(group="shard")
def test_shard_scaling_parity_and_efficiency(benchmark, scale):
    engine, specs, queries, shape = _workload(scale)
    cpus = os.cpu_count() or 1

    direct = run_load(direct_dispatch(engine), specs, queries,
                      clients=CLIENTS, mode="direct")

    counts = sorted({1, 2, 4, cpus})
    reports = {}
    for n in counts[:-1]:
        reports[n] = _serve_run(engine, specs, queries, n)
    top = counts[-1]
    reports[top] = benchmark.pedantic(
        lambda: _serve_run(engine, specs, queries, top),
        rounds=2, iterations=1,
    )

    # --- exactness: byte-identical at every shard count -------------
    for n in counts:
        mismatches = parity_mismatches(direct, reports[n])
        assert mismatches == 0, (
            f"{mismatches} digest mismatches vs direct at {n} shards"
        )
        assert reports[n].by_status == {"ok": reports[n].completed}, (
            f"non-ok outcomes at {n} shards: {reports[n].by_status}"
        )

    base_qps = reports[1].qps
    scaling = []
    for n in counts:
        qps = reports[n].qps
        lat = reports[n].latency_percentiles()
        scaling.append({
            "shards": n,
            "qps": round(qps, 2),
            "qps_per_shard": round(qps / n, 2),
            "efficiency": round(qps / (n * base_qps), 3) if base_qps else 0.0,
            "p50_ms": round(lat["p50"] * 1e3, 3),
            "p95_ms": round(lat["p95"] * 1e3, 3),
        })

    # --- scaling gates, sized to the machine ------------------------
    # A single core has nothing to scale onto and smoke workloads are
    # too small to time reliably; both still assert parity above.
    gated = cpus >= 2 and scale.name != "smoke"
    if gated and cpus >= 4:
        speedup = reports[top].qps / base_qps
        assert speedup >= 2.5, (
            f"{top} shards reached only {speedup:.2f}x of the "
            f"unsharded service on {cpus} cores (need >= 2.5x)"
        )
        four = next(p for p in scaling if p["shards"] == 4)
        assert four["efficiency"] >= 0.6, (
            f"per-shard efficiency at 4 shards is {four['efficiency']:.0%} "
            f"(need >= 60%)"
        )
    elif gated:
        assert reports[top].qps >= 1.2 * base_qps, (
            f"{top} shards did not beat the unsharded service by 1.2x "
            f"on {cpus} cores"
        )

    print_series(
        f"Shard scaling at {CLIENTS} clients on {cpus} cores "
        f"({shape['requests']} reqs over {shape['pool']} queries, "
        f"corpus {shape['corpus_size']}x{shape['length']}, "
        f"gates {'on' if gated else 'off'})",
        {
            "shards": [p["shards"] for p in scaling],
            "qps": [p["qps"] for p in scaling],
            "per_shard": [p["qps_per_shard"] for p in scaling],
            "efficiency": [f"{p['efficiency']:.0%}" for p in scaling],
            "p50_ms": [p["p50_ms"] for p in scaling],
        },
    )

    payload = {
        "workload": {
            **shape,
            "clients": CLIENTS,
            "zipf_s": ZIPF_S,
            "cpu_count": cpus,
            "shard_counts": counts,
            "scale": scale.name,
        },
        "timings_ms": {
            "direct_wall": round(direct.wall_s * 1e3, 3),
            **{f"shards{n}_wall": round(reports[n].wall_s * 1e3, 3)
               for n in counts},
        },
        "scaling": scaling,
        "checks": {
            "parity_mismatches": 0,
            "gates_applied": gated,
            "speedup_gate": 2.5 if cpus >= 4 else (1.2 if cpus >= 2 else None),
            "efficiency_gate": 0.6 if cpus >= 4 else None,
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    record_history("shard", payload)
    print(f"\nwrote {OUT_PATH.name}")

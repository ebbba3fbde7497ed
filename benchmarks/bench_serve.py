"""Serving-layer benchmark — the serving layer vs direct dispatch.

Closed-loop load test of :class:`repro.serve.QBHService` against the
baseline the serving layer replaces: every client calling the engine
directly, one query at a time.  The workload is Zipf-skewed over a
pool of hum variants (popular tunes repeat — the skew coalescing and
result caching exist for), mixing k-NN and range requests at 8
concurrent clients.

Asserted in-test, per the acceptance criteria:

* the service sustains at least **1.5x** the direct throughput — the
  result cache and request coalescing answer the repeated hums, so
  each popular tune reaches the engine once;
* result sets are **byte-identical** across both modes (per-request
  SHA-1 digests over ids + float64 distance bytes);
* under an impossible deadline, **zero** requests come back as results
  — every one is an explicit ``deadline_exceeded``.

Writes ``BENCH_serve.json`` at the repo root and appends one entry to
``BENCH_history.jsonl`` for the ``repro perf check`` regression gate.
"""

import json
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

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def _workload(scale):
    if scale.name == "smoke":
        corpus_size, length, total, pool = 200, 64, 64, 16
    else:
        corpus_size, length, total, pool = 800, 128, 160, 32
    corpus = random_walks(corpus_size, length, seed=51)
    rng = np.random.default_rng(52)
    queries = [corpus[i % corpus_size] + 0.15 * rng.normal(size=length)
               for i in range(pool)]
    specs = zipf_workload(total, pool, s=ZIPF_S, seed=53,
                          kinds=("knn", "range"), knn_k=KNN_K,
                          epsilon=EPSILON)
    engine = QueryEngine(list(corpus), delta=0.1)
    return engine, specs, queries, {
        "corpus_size": corpus_size, "length": length,
        "requests": total, "pool": pool,
    }


def _serve_run(engine, specs, queries):
    """One fresh service, one full closed-loop pass."""
    service = QBHService.from_engine(engine, cache_size=1024)
    try:
        report = run_load(service_dispatch(service), specs, queries,
                          clients=CLIENTS, mode="service")
        report.saturation = service.saturation()
    finally:
        service.close()
    return report


@pytest.mark.benchmark(group="serve")
def test_serving_throughput_parity_and_deadlines(benchmark, scale):
    engine, specs, queries, shape = _workload(scale)

    direct = run_load(direct_dispatch(engine), specs, queries,
                      clients=CLIENTS, mode="direct")
    served = benchmark.pedantic(
        lambda: _serve_run(engine, specs, queries), rounds=2, iterations=1,
    )

    # --- exactness: byte-identical results across modes -------------
    mismatches = parity_mismatches(direct, served)
    assert mismatches == 0, f"{mismatches} digest mismatches vs direct"
    assert served.by_status == {"ok": served.completed}

    # --- throughput: the tentpole acceptance gate -------------------
    speedup = served.qps / direct.qps
    assert speedup >= 1.5, (
        f"the result cache and request coalescing sustained only "
        f"{speedup:.2f}x of direct dispatch at {CLIENTS} clients "
        f"(need >= 1.5x)"
    )

    # --- deadlines: a miss is an outcome, never a result ------------
    strict = QBHService.from_engine(engine, cache_size=0)
    try:
        deadline_report = run_load(
            service_dispatch(strict, deadline_s=1e-7),
            specs[:CLIENTS * 2], queries, clients=CLIENTS,
            mode="service-strict-deadline",
        )
    finally:
        strict.close()
    violations = [r for r in deadline_report.records
                  if r.status == "deadline_exceeded" and r.digest is not None]
    assert violations == [], "deadline miss returned results"
    assert all(r.status == "deadline_exceeded"
               for r in deadline_report.records)

    direct_lat = direct.latency_percentiles()
    served_lat = served.latency_percentiles()
    saturation = served.saturation
    print_series(
        f"Serving at {CLIENTS} clients "
        f"({shape['requests']} reqs over {shape['pool']} queries, "
        f"zipf s={ZIPF_S}, corpus "
        f"{shape['corpus_size']}x{shape['length']})",
        {
            "mode": ["direct", "service"],
            "qps": [round(direct.qps, 1), round(served.qps, 1)],
            "p50_ms": [round(direct_lat["p50"] * 1e3, 2),
                       round(served_lat["p50"] * 1e3, 2)],
            "p95_ms": [round(direct_lat["p95"] * 1e3, 2),
                       round(served_lat["p95"] * 1e3, 2)],
            "speedup": ["1.0x", f"{speedup:.1f}x"],
        },
    )

    payload = {
        "workload": {
            **shape,
            "clients": CLIENTS,
            "zipf_s": ZIPF_S,
            "scale": scale.name,
        },
        "timings_ms": {
            "direct_wall": round(direct.wall_s * 1e3, 3),
            "service_wall": round(served.wall_s * 1e3, 3),
            "direct_p50": round(direct_lat["p50"] * 1e3, 3),
            "service_p50": round(served_lat["p50"] * 1e3, 3),
            "direct_p95": round(direct_lat["p95"] * 1e3, 3),
            "service_p95": round(served_lat["p95"] * 1e3, 3),
        },
        "throughput": {
            "direct_qps": round(direct.qps, 2),
            "service_qps": round(served.qps, 2),
            "speedup": round(speedup, 3),
        },
        "checks": {
            "parity_mismatches": mismatches,
            "deadline_violations_with_results": len(violations),
            "strict_deadline_misses": len(deadline_report.records),
            "speedup_gate": 1.5,
        },
        "saturation": saturation,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    entry = record_history("serve", payload)
    print(f"\nwrote {OUT_PATH.name}; history entry at "
          f"{entry['timestamp']}" if "timestamp" in entry
          else f"\nwrote {OUT_PATH.name}")

"""Engine benchmark — vectorised filter cascade vs per-pair scalar loop.

The tentpole claim of the engine layer: evaluating an entire corpus
through batched lower-bound matrices (`repro.engine.QueryEngine`) beats
the textbook one-candidate-at-a-time loop by a wide margin *without
changing the answer*.  The scalar baseline below is the loop every
GEMINI description implies — per candidate: scalar LB_Keogh against the
query envelope, then a scalar banded DTW on survivors.

Asserted in-test, per the acceptance criteria:

* identical result sets to the brute-force ground truth — zero false
  negatives, zero false positives — for both the scalar loop and the
  cascade;
* the vectorised cascade is at least 5x faster than the scalar loop on
  a 10k-series corpus;
* the disabled observability facade's hook cost is a small fraction of
  the query time, and enabling metrics does not change any answer.

Writes ``BENCH_cascade.json`` (timings plus a metrics-registry
snapshot of the instrumented run) at the repo root.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.envelope import envelope_distance, k_envelope
from repro.datasets.generators import random_walks
from repro.dtw.distance import ldtw_distance, ldtw_distance_batch
from repro.engine import QueryEngine
from repro.engine.cascade import _REFINE_ROWS
from repro.obs import OBS_DISABLED, Observability

from _harness import print_series, record_history

DB_SIZE = 10_000
LENGTH = 128
DELTA = 0.1
N_RESULTS = 50          # epsilon is set to admit about this many answers

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_cascade.json"


def scalar_range_scan(corpus, query, band, epsilon):
    """The per-pair baseline: scalar LB filter, then scalar DTW."""
    q_env = k_envelope(query, band)
    results = []
    lb_survivors = 0
    for row in range(corpus.shape[0]):
        if envelope_distance(corpus[row], q_env) > epsilon:
            continue
        lb_survivors += 1
        dist = ldtw_distance(query, corpus[row], band,
                             upper_bound=epsilon)
        if dist <= epsilon:
            results.append((row, float(dist)))
    results.sort(key=lambda pair: pair[1])
    return results, lb_survivors


@pytest.mark.benchmark(group="engine")
def test_cascade_vs_scalar_loop(benchmark):
    corpus = random_walks(DB_SIZE, LENGTH, seed=17)
    query = corpus[123] + 0.4 * np.random.default_rng(18).normal(size=LENGTH)
    engine = QueryEngine(corpus, delta=DELTA)
    band = engine.band

    # Ground truth by unfiltered batch DP; epsilon from its quantile so
    # the answer set is non-trivial whatever the seed produced.
    truth_dists = ldtw_distance_batch(query, corpus, band)
    epsilon = float(np.partition(truth_dists, N_RESULTS)[N_RESULTS])
    truth = {i for i in range(DB_SIZE) if truth_dists[i] <= epsilon}

    started = time.perf_counter()
    scalar_results, lb_survivors = scalar_range_scan(
        corpus, query, band, epsilon
    )
    scalar_s = time.perf_counter() - started

    def cascade_query():
        return engine.range_search(query, epsilon)

    results, stats = benchmark.pedantic(cascade_query, rounds=3,
                                        iterations=1)
    cascade_s = stats.total_time_s

    # Zero false negatives (and no false positives), both paths.
    assert {i for i, _ in scalar_results} == truth
    assert {i for i, _ in results} == truth
    for row, dist in results:
        assert dist == pytest.approx(truth_dists[row], abs=1e-9)

    speedup = scalar_s / cascade_s
    print_series(
        f"Vectorised cascade vs per-pair scalar loop "
        f"({DB_SIZE} series, length {LENGTH}, delta {DELTA})",
        {
            "path": ["scalar loop", "cascade"],
            "lb_survivors": [lb_survivors, stats.exact_candidates],
            "exact_dtw": [lb_survivors, stats.dtw_computations],
            "ms": [round(scalar_s * 1e3, 1),
                   round(cascade_s * 1e3, 1)],
            "speedup": ["1.0x", f"{speedup:.1f}x"],
        },
    )
    print()
    print(stats.summary())

    # One instrumented re-run of the same query: identical answer, and
    # its metrics snapshot rides along in the results file.
    obs = Observability()
    engine.obs = obs
    try:
        obs_results, obs_stats = engine.range_search(query, epsilon)
    finally:
        engine.obs = OBS_DISABLED
    assert obs_results == results
    payload = {
        "workload": {
            "db_size": DB_SIZE,
            "length": LENGTH,
            "delta": DELTA,
            "epsilon": epsilon,
            "results": len(results),
        },
        "timings_ms": {
            "scalar_loop": round(scalar_s * 1e3, 3),
            "cascade": round(cascade_s * 1e3, 3),
            "cascade_instrumented": round(obs_stats.total_time_s * 1e3, 3),
        },
        "speedup": round(speedup, 2),
        "cascade_stats": stats.to_dict(),
        "metrics": obs.metrics.snapshot(),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    record_history("cascade", payload)

    assert speedup >= 5.0, (
        f"cascade only {speedup:.1f}x faster than the scalar loop"
    )


@pytest.mark.benchmark(group="engine")
def test_cascade_knn_matches_ground_truth_at_scale(benchmark):
    corpus = random_walks(2_000, LENGTH, seed=23)
    query = corpus[77] + 0.4 * np.random.default_rng(24).normal(size=LENGTH)
    engine = QueryEngine(corpus, delta=DELTA)

    results, stats = benchmark.pedantic(
        lambda: engine.knn(query, 10), rounds=3, iterations=1
    )
    truth = engine.ground_truth_knn(query, 10)
    assert [i for i, _ in results] == [i for i, _ in truth]
    np.testing.assert_allclose(
        [d for _, d in results], [d for _, d in truth], atol=1e-9
    )
    # The cascade must do far less exact work than a full scan.
    assert stats.dtw_computations < len(engine) // 4


@pytest.mark.benchmark(group="engine")
def test_disabled_observability_overhead(benchmark):
    """Disabled-facade hook cost stays below 5% of a small query's time.

    The engine calls the observability facade unconditionally; with the
    shared disabled facade every call is an immediate return.  A/B
    timing two full engine runs is too noisy at CI granularity to bound
    a few percent, so this measures the thing itself: the per-query
    number of facade touches, times their measured no-op cost, must be
    under 5% of the measured query time.  Enabling metrics (no tracer)
    must also leave the answer bit-identical.
    """
    corpus = random_walks(2_000, LENGTH, seed=29)
    query = corpus[42] + 0.4 * np.random.default_rng(30).normal(size=LENGTH)
    engine = QueryEngine(corpus, delta=DELTA)

    results, stats = benchmark.pedantic(
        lambda: engine.knn(query, 10), rounds=3, iterations=1
    )
    query_s = min(
        engine.knn(query, 10)[1].total_time_s for _ in range(5)
    )

    # Facade touches per knn query: one span per stage, a refine +
    # kernel span pair per refinement slice (plus the two k-row seed
    # slices), the root span, and the record hook.
    slices = -(-stats.dtw_computations // _REFINE_ROWS) + 2
    hook_calls = len(stats.stages) + 2 * slices + 1

    reps = 200
    started = time.perf_counter()
    for _ in range(reps):
        for _ in range(hook_calls):
            with OBS_DISABLED.span("x", rows=1):
                pass
        OBS_DISABLED.record_cascade_query("knn", stats, None)
    noop_s = (time.perf_counter() - started) / reps

    overhead = noop_s / query_s
    print(f"\ndisabled-facade hooks: {hook_calls + 1} calls/query, "
          f"{noop_s * 1e6:.1f} us total = {overhead:.2%} of the "
          f"{query_s * 1e3:.2f} ms query")
    assert overhead < 0.05, (
        f"no-op observability hooks cost {overhead:.1%} of the query"
    )

    # Metrics-enabled serving returns the identical answer.
    engine.obs = Observability()
    try:
        obs_results, _ = engine.knn(query, 10)
    finally:
        engine.obs = OBS_DISABLED
    assert obs_results == results

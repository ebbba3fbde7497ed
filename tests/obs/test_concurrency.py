"""Exactness of sharded metrics under concurrent callers.

The acceptance bar for the metrics registry: totals must be *exact* —
not approximately right — when many threads run ``range_search`` /
``knn`` on one engine at once, and when raw threads hammer a single
counter.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.obs import MetricsRegistry, Observability
from tests.conftest import run_concurrently


def test_counter_exact_under_thread_hammer():
    registry = MetricsRegistry()
    counter = registry.counter("hammer_total")
    hist = registry.histogram("hammer_values", edges=(250.0, 500.0))
    n_threads, per_thread = 8, 5_000
    barrier = threading.Barrier(n_threads)

    def hammer():
        barrier.wait()
        for i in range(per_thread):
            counter.inc()
            hist.observe(i % 1000)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(lambda _: hammer(), range(n_threads)))

    assert counter.value == n_threads * per_thread
    merged = hist.merged()
    assert merged["count"] == n_threads * per_thread
    by_le = {bucket["le"]: bucket["count"] for bucket in merged["buckets"]}
    # 0..999 per cycle: 251 values <= 250, 501 values <= 500.
    cycles = n_threads * per_thread // 1000
    assert by_le[250.0] == 251 * cycles
    assert by_le[500.0] == 501 * cycles
    assert by_le["+Inf"] == merged["count"]


@pytest.fixture(scope="module")
def corpus():
    return random_walks(300, 64, seed=5)


@pytest.fixture(scope="module")
def queries(corpus):
    rng = np.random.default_rng(6)
    return [corpus[i] + 0.3 * rng.normal(size=64) for i in range(24)]


def _merge(stats_list):
    return sum(stats_list[1:], stats_list[0])


def test_metrics_exact_across_knn_many_workers(corpus, queries):
    obs = Observability()
    engine = QueryEngine(corpus, band=4, obs=obs)
    answers = run_concurrently(lambda query: engine.knn(query, 5), queries)
    assert len(answers) == len(queries)
    merged = _merge([stats for _, stats in answers])

    m = obs.metrics
    assert m.counter("engine.queries_total", kind="knn").value == len(queries)
    assert m.counter("engine.candidates_total").value == merged.corpus_size
    assert (m.counter("engine.candidates_refined_total").value
            == merged.dtw_computations)
    assert (m.counter("engine.dtw_abandoned_total").value
            == merged.dtw_abandoned)
    assert (m.counter("engine.exact_skipped_total").value
            == merged.exact_skipped)
    assert m.counter("engine.results_total").value == merged.results
    for stage in merged.stages:
        assert (m.counter("engine.stage.candidates_in_total",
                          stage=stage.name).value == stage.candidates_in)
        assert (m.counter("engine.stage.pruned_total",
                          stage=stage.name).value == stage.pruned)
    assert (m.histogram("engine.query_seconds", kind="knn").count
            == len(queries))
    # Kernel accounting flows through the same shards.
    assert m.counter("dtw.kernel_calls_total").value > 0
    assert m.counter("dtw.cells_total").value > 0


def test_metrics_exact_across_range_many_workers(corpus, queries):
    obs = Observability()
    engine = QueryEngine(corpus, band=4, obs=obs)
    answers = run_concurrently(
        lambda query: engine.range_search(query, 4.0), queries
    )
    assert len(answers) == len(queries)
    merged = _merge([stats for _, stats in answers])

    m = obs.metrics
    assert (m.counter("engine.queries_total", kind="range").value
            == len(queries))
    assert m.counter("engine.candidates_total").value == merged.corpus_size
    assert (m.counter("engine.candidates_refined_total").value
            == merged.dtw_computations)
    assert m.counter("engine.results_total").value == merged.results


@pytest.mark.parametrize("kind", ["knn", "range"])
def test_merged_stats_equal_sum_of_serial_stats(corpus, queries, kind):
    """Stats of concurrent queries, merged by ``+`` == the serial sum.

    Queries are deterministic, so a separate serial pass must produce
    counter-identical stats; both timers are additive under ``+``.
    """
    engine = QueryEngine(corpus, band=4)
    if kind == "knn":
        def one(query):
            return engine.knn(query, 5)[1]
    else:
        def one(query):
            return engine.range_search(query, 4.0)[1]
    merged = _merge(run_concurrently(one, queries))
    serial = [one(query) for query in queries]
    summed = _merge(serial)

    assert merged.corpus_size == summed.corpus_size
    assert merged.dtw_computations == summed.dtw_computations
    assert merged.dtw_abandoned == summed.dtw_abandoned
    assert merged.exact_skipped == summed.exact_skipped
    assert merged.results == summed.results
    assert merged.pruned_total == summed.pruned_total
    assert [s.name for s in merged.stages] == [s.name for s in summed.stages]
    for got, want in zip(merged.stages, summed.stages):
        assert got.candidates_in == want.candidates_in
        assert got.pruned == want.pruned
        assert got.bound_min == pytest.approx(want.bound_min)
        assert got.bound_mean == pytest.approx(want.bound_mean)
        assert got.bound_max == pytest.approx(want.bound_max)

    assert summed.cpu_time_s == pytest.approx(
        sum(stats.cpu_time_s for stats in serial)
    )
    assert summed.total_time_s == pytest.approx(
        sum(stats.total_time_s for stats in serial)
    )
    assert merged.cpu_time_s > 0


def test_parallel_results_identical_and_cpu_vs_wall_time(corpus, queries):
    obs = Observability()
    instrumented = QueryEngine(corpus, band=4, obs=obs)
    plain = QueryEngine(corpus, band=4)

    answers = run_concurrently(
        lambda query: instrumented.knn(query, 5), queries
    )
    seq_results = [plain.knn(query, 5)[0] for query in queries]
    assert [results for results, _ in answers] == seq_results

    # Both timers sum per-query elapsed times under ``+``, and always
    # cover the summed stage/exact phases.
    par_stats = _merge([stats for _, stats in answers])
    assert par_stats.cpu_time_s > 0
    assert par_stats.total_time_s > 0
    phase_s = (sum(stage.wall_time_s for stage in par_stats.stages)
               + par_stats.exact_time_s)
    assert par_stats.cpu_time_s >= phase_s * 0.5

"""Trace analytics: the JSONL reader and the aggregated report.

Covers the tentpole acceptance criteria: the streaming reader survives
corrupt and truncated lines, ``analyze_traces`` reproduces the exact
candidate accounting ``--stats-json`` reports (both are projections of
the same ``StageStats`` objects), percentiles come off the cumulative
histogram buckets correctly, and ``CascadeStats.from_trace`` round-trips
through an export → parse → rebuild cycle.
"""

import json

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import CascadeStats, QueryEngine
from repro.obs import (
    Observability,
    TraceReadStats,
    analyze_traces,
    percentile_from_histogram,
    read_traces,
)
from repro.obs.analysis import iter_span_lines
from repro.obs.metrics import Histogram


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One engine, several traced queries, exported to JSONL."""
    corpus = random_walks(200, 64, seed=11)
    rng = np.random.default_rng(12)
    queries = [corpus[i] + 0.3 * rng.normal(size=64) for i in range(6)]
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    obs = Observability.to_files(trace_out=path)
    engine = QueryEngine(corpus, band=4, obs=obs)
    stats = []
    for i, query in enumerate(queries):
        if i % 2:
            stats.append(engine.range_search(query, 4.0)[1])
        else:
            stats.append(engine.knn(query, 5)[1])
    obs.close()
    return path, stats


# ----------------------------------------------------------------------
# streaming reader
# ----------------------------------------------------------------------


def test_reader_skips_damaged_lines():
    good = json.dumps({
        "name": "query", "trace_id": 1, "span_id": 2, "parent_id": None,
        "start_s": 0.0, "duration_s": 0.5, "attrs": {},
    })
    lines = [
        good,
        "",                               # blank: ignored silently
        good[: len(good) // 2],           # truncated mid-write
        "not json at all {",
        json.dumps(["a", "list"]),        # JSON but not an object
        json.dumps({"name": "x"}),        # object but not a span
        good,
    ]
    stats = TraceReadStats()
    spans = list(iter_span_lines(lines, stats))
    assert len(spans) == 2
    assert stats.lines == 6               # blank not counted
    assert stats.spans == 2
    assert stats.bad_lines == 4


def test_read_traces_groups_interleaved_traces():
    def span(trace, sid, parent, name="x"):
        return json.dumps({
            "name": name, "trace_id": trace, "span_id": sid,
            "parent_id": parent, "start_s": 0.0, "duration_s": 0.1,
            "attrs": {},
        })

    # Two traces interleaved (as concurrent queries' roots are in the
    # file), plus one root-less trace left dangling.
    lines = [
        span(1, 11, 1),
        span(2, 21, 2),
        span(1, 12, 1),
        span(1, 1, None, "query"),        # trace 1 complete
        span(3, 31, 3),                   # never gets a root
        span(2, 2, None, "query"),        # trace 2 complete
    ]
    stats = TraceReadStats()
    traces = list(read_traces(lines, stats))
    assert [trace[-1]["trace_id"] for trace in traces] == [1, 2]
    assert [len(trace) for trace in traces] == [3, 2]
    # Root arrives last within each group.
    assert all(trace[-1]["parent_id"] is None for trace in traces)
    assert stats.traces == 2
    assert stats.incomplete_traces == 1


def test_read_traces_from_file(traced_run):
    path, stats_list = traced_run
    read = TraceReadStats()
    traces = list(read_traces(path, read))
    assert read.traces == len(traces) == len(stats_list)
    assert read.bad_lines == 0
    assert read.incomplete_traces == 0


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------


def test_percentile_from_histogram_reads_bucket_edges():
    hist = Histogram("t", {}, (1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.5, 3.0):
        hist.observe(value)
    merged = hist.merged()
    # Cumulative counts: le1=1, le2=3, le4=4.  p50 target 2 -> first
    # bucket reaching it is le=2.0; p95 target 3.8 -> le=4.0, capped
    # at the observed max.
    assert percentile_from_histogram(merged, 0.50) == 2.0
    assert percentile_from_histogram(merged, 0.95) == 3.0
    assert percentile_from_histogram(merged, 0.25) == 1.0


def test_percentile_above_top_edge_uses_observed_max():
    hist = Histogram("t", {}, (1.0,))
    hist.observe(9.0)
    merged = hist.merged()
    assert percentile_from_histogram(merged, 0.5) == 9.0
    empty = Histogram("e", {}, (1.0,)).merged()
    assert percentile_from_histogram(empty, 0.5) is None


# ----------------------------------------------------------------------
# the aggregated report
# ----------------------------------------------------------------------


def test_report_matches_engine_stats(traced_run):
    path, stats_list = traced_run
    read = TraceReadStats()
    report = analyze_traces(read_traces(path, read), read)

    assert report.queries == len(stats_list)
    assert report.results == sum(s.results for s in stats_list)
    assert report.dtw_computations == sum(
        s.dtw_computations for s in stats_list
    )
    assert report.corpus_candidates == sum(
        s.corpus_size for s in stats_list
    )
    # Pruning table: exact sums of the per-query StageStats — the same
    # numbers --stats-json carries, by construction.
    by_name = {agg.name: agg for agg in report.stages}
    for i, name in enumerate(s.name for s in stats_list[0].stages):
        agg = by_name[name]
        assert agg.candidates_in == sum(
            s.stages[i].candidates_in for s in stats_list
        )
        assert agg.pruned == sum(s.stages[i].pruned for s in stats_list)
        assert agg.survivors == agg.candidates_in - agg.pruned
    # The last (tightest) stage's tightness is 1 by definition.
    assert report.stages[-1].tightness == pytest.approx(1.0)

    latency_names = {row.name for row in report.latencies}
    assert "query" in latency_names
    assert any(name.startswith("stage:") for name in latency_names)
    query_row = next(row for row in report.latencies
                     if row.name == "query")
    assert query_row.count == len(stats_list)
    assert query_row.p50_s <= query_row.p95_s <= query_row.p99_s
    assert query_row.max_s >= query_row.p99_s or query_row.count > 0


def test_report_critical_paths_and_folded(traced_run):
    path, _ = traced_run
    read = TraceReadStats()
    report = analyze_traces(read_traces(path, read), read)

    assert report.critical_paths
    for entry in report.critical_paths:
        assert entry["path"].startswith("query")
        assert entry["count"] >= 1 and entry["mean_s"] >= 0


def test_report_formats_render(traced_run):
    path, _ = traced_run
    read = TraceReadStats()
    report = analyze_traces(read_traces(path, read), read)
    table = report.format_table()
    assert "span" in table and "stage" in table and "tightness" in table
    doc = report.to_dict()
    assert doc["queries"] == report.queries
    assert json.dumps(doc)  # JSON-serialisable end to end


# ----------------------------------------------------------------------
# CascadeStats.from_trace round-trip through the JSONL reader
# ----------------------------------------------------------------------


def test_from_trace_round_trips_through_jsonl_reader(traced_run):
    path, stats_list = traced_run
    traces = list(read_traces(path))
    assert len(traces) == len(stats_list)
    for trace, want in zip(traces, stats_list):
        rebuilt = CascadeStats.from_trace(trace)
        assert rebuilt.corpus_size == want.corpus_size
        assert rebuilt.dtw_computations == want.dtw_computations
        assert rebuilt.dtw_abandoned == want.dtw_abandoned
        assert rebuilt.exact_skipped == want.exact_skipped
        assert rebuilt.results == want.results
        assert rebuilt.total_time_s == pytest.approx(want.total_time_s)
        assert rebuilt.cpu_time_s == pytest.approx(want.cpu_time_s)
        assert [s.name for s in rebuilt.stages] == [
            s.name for s in want.stages
        ]
        for got, exp in zip(rebuilt.stages, want.stages):
            assert got.candidates_in == exp.candidates_in
            assert got.pruned == exp.pruned
            assert got.bound_mean == pytest.approx(exp.bound_mean)


def test_from_trace_round_trip_tolerates_corrupt_lines(traced_run, tmp_path):
    """Damaging every other line loses traces, never correctness."""
    path, stats_list = traced_run
    lines = path.read_text().splitlines()
    # Truncate the first line (a span of the first trace) mid-JSON and
    # inject garbage between traces: the first trace becomes incomplete
    # or short, the rest must still round-trip exactly.
    damaged = tmp_path / "damaged.jsonl"
    damaged.write_text("\n".join(
        [lines[0][:20], "garbage {{{"] + lines[1:]
    ) + "\n")

    read = TraceReadStats()
    traces = list(read_traces(damaged, read))
    assert read.bad_lines == 2
    rebuilt = [CascadeStats.from_trace(trace) for trace in traces]
    # Every fully-intact trace matches its original stats record.
    intact = [s for s in rebuilt
              if s.corpus_size == stats_list[0].corpus_size
              and len(s.stages) == len(stats_list[0].stages)]
    assert len(intact) >= len(stats_list) - 1


# ----------------------------------------------------------------------
# serving-layer rows
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def served_run(tmp_path_factory):
    """A traced service run: serve spans interleaved with engine spans."""
    from repro.serve import QBHService

    corpus = random_walks(80, 64, seed=23)
    rng = np.random.default_rng(24)
    path = tmp_path_factory.mktemp("serve_trace") / "trace.jsonl"
    obs = Observability.to_files(trace_out=path)
    engine = QueryEngine(corpus, band=4, obs=obs)
    service = QBHService.from_engine(engine, cache_size=16, obs=obs)
    try:
        repeat = corpus[0] + 0.1 * rng.normal(size=64)
        for _ in range(2):            # second one is a cache hit
            assert service.knn(repeat, 3).ok
        for i in range(1, 4):
            query = corpus[i] + 0.1 * rng.normal(size=64)
            assert service.range_search(query, 3.0).ok
    finally:
        service.close()
        obs.close()
    return path


def test_report_serve_rows(served_run):
    """serve:* spans fold into the serving section; engine analysis is
    untouched by their presence."""
    report = analyze_traces(read_traces(served_run))
    serve = report.serve
    assert serve is not None
    assert serve.requests == 5
    assert serve.by_status == {"ok": 5}
    assert serve.cache_hits == 1
    assert serve.cache_hit_rate == pytest.approx(0.2)
    assert serve.batches == 4          # 5 requests, one answered by cache
    assert serve.batched_requests == 4
    assert serve.coalesced == 0        # no duplicate was ever queued
    # the engine's own query spans still aggregate as before
    assert report.queries == 4
    # serve spans are instant roots: they must not leak into latencies
    assert not any(lat.name.startswith("serve:")
                   for lat in report.latencies)


def test_report_serve_rows_render_and_roundtrip(served_run):
    report = analyze_traces(read_traces(served_run))
    table = report.format_table()
    assert "serving:" in table
    assert "cache-hit" in table
    assert "queue wait" in table or "queue_wait" in table
    doc = report.to_dict()
    assert doc["serve"]["requests"] == 5
    assert doc["serve"]["by_status"] == {"ok": 5}
    json.dumps(doc)  # JSON-ready end to end


def test_report_without_serve_spans_has_no_serve_section(traced_run):
    path, _ = traced_run
    report = analyze_traces(read_traces(path))
    assert report.serve is None
    assert report.to_dict()["serve"] is None
    assert "serving:" not in report.format_table()


# ----------------------------------------------------------------------
# per-shard breakdown (a section of repro obs report's table)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sharded_run(tmp_path_factory):
    """Traced queries through a 3-shard router, exported to JSONL."""
    from repro.shard import ShardRouter

    corpus = random_walks(60, 48, seed=31)
    rng = np.random.default_rng(32)
    path = tmp_path_factory.mktemp("shard_trace") / "trace.jsonl"
    obs = Observability.to_files(trace_out=path)
    engine = QueryEngine(list(corpus), delta=0.1, obs=obs)
    with ShardRouter.from_engine(engine, shards=3, obs=obs) as router:
        for i in range(4):
            query = corpus[i] + 0.1 * rng.normal(size=48)
            router.knn(query, 5)
    obs.close()
    return path


def test_per_shard_aggregates(sharded_run):
    report = analyze_traces(read_traces(sharded_run))
    assert len(report.shards) == 3
    assert [agg.shard for agg in report.shards] == [0, 1, 2]
    for agg in report.shards:
        assert agg.queries == 4
        assert agg.epochs == {0}
        assert 0.0 < agg.work_share < 1.0
        assert 0.0 <= agg.pruning_power <= 1.0
    assert sum(agg.work_share for agg in report.shards) == pytest.approx(1.0)
    assert report.shard_imbalance is not None
    assert report.shard_imbalance >= 1.0
    # worker roots are real spans: they show in the span table too
    assert any(lat.name == "shard:query" for lat in report.latencies)


def test_per_shard_table_renders(sharded_run):
    report = analyze_traces(read_traces(sharded_run))
    table = report.format_table()
    assert "per-shard (3 shards" in table
    assert "work" in table and "pruned" in table
    assert "\n".join(report._format_shard_table()) in table
    # a sharded trace carries no quality spans, so no scenario matrix
    assert "scenario matrix:" not in table


def test_per_shard_to_dict_is_json_ready(sharded_run):
    report = analyze_traces(read_traces(sharded_run))
    doc = report.to_dict()
    assert len(doc["shards"]) == 3
    assert doc["shard_imbalance"] == pytest.approx(report.shard_imbalance)
    json.dumps(doc)


def test_per_shard_section_absent_without_shard_spans(traced_run):
    path, _ = traced_run
    report = analyze_traces(read_traces(path))
    assert report.shards == []
    assert report.shard_imbalance is None
    table = report.format_table()
    assert "per-shard" not in table
    assert "scenario matrix:" not in table


# ----------------------------------------------------------------------
# scenario matrix (a section of repro obs report's table)
# ----------------------------------------------------------------------


def test_quality_trace_table_carries_the_scenario_matrix(tmp_path):
    path = tmp_path / "quality.jsonl"
    obs = Observability.to_files(trace_out=path)
    for scenario, severity, rank in (("jitter", 0.5, 1), ("jitter", 1.0, 4),
                                     ("tempo", 0.5, 20)):
        obs.record_quality_query(scenario, severity, rank, 20,
                                 duration_s=0.01, contour_rank=2)
    obs.close()
    report = analyze_traces(read_traces(path))
    matrix = report.format_scenario_matrix()
    assert matrix.startswith("scenario matrix: 3 queries, 2 scenarios")
    table = report.format_table()
    assert matrix in table
    assert "per-shard" not in table


def test_bad_lines_warn_in_the_table_header(sharded_run, tmp_path):
    damaged = tmp_path / "damaged.jsonl"
    with open(sharded_run) as src_handle:
        content = src_handle.read()
    with open(damaged, "w") as dst:
        dst.write("{torn line\n")
        dst.write(content)
        dst.write("also not json\n")
    stats = TraceReadStats()
    report = analyze_traces(read_traces(damaged, stats), stats)
    table = report.format_table()
    assert "WARNING: skipped 2 undecodable line(s)" in table
    assert "lower bound" in table
    # an intact log renders no warning
    clean = analyze_traces(read_traces(sharded_run, TraceReadStats()))
    assert "WARNING" not in clean.format_table()

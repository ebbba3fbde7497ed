"""Workload capture and deterministic replay parity."""

import json

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.obs import Observability
from repro.perf import WorkloadRecorder, load_workload, replay_workload
from repro.perf.replay import ReplayReport
from tests.conftest import run_concurrently


@pytest.fixture(scope="module")
def corpus():
    return random_walks(150, 64, seed=41)


@pytest.fixture(scope="module")
def workload_file(corpus, tmp_path_factory):
    """Serve queries with capture on; return (path, expected answers)."""
    path = tmp_path_factory.mktemp("wl") / "workload.jsonl"
    obs = Observability.to_files(workload_out=path)
    engine = QueryEngine(corpus, band=4, obs=obs)
    rng = np.random.default_rng(42)
    expected = []
    for i in range(4):
        query = corpus[i] + 0.3 * rng.normal(size=64)
        if i % 2:
            expected.append(engine.range_search(query, 4.0)[0])
        else:
            expected.append(engine.knn(query, 5)[0])
    obs.close()
    return path, expected


def test_capture_schema_and_stable_ids(workload_file, corpus):
    path, expected = workload_file
    records = load_workload(path)
    assert len(records) == len(expected)
    for record, want in zip(records, expected):
        assert record["schema"] == 1
        assert record["kind"] in ("range", "knn")
        assert len(record["query_id"]) == 16
        assert record["backend"] == "vectorized"
        assert record["band"] == 4
        assert [tuple(pair) for pair in record["results"]] == [
            (item, pytest.approx(dist)) for item, dist in want
        ]
    # Content-digest ids: distinct queries get distinct ids.
    assert len({record["query_id"] for record in records}) == len(records)


def test_replay_parity_across_backends_and_modes(workload_file, corpus):
    path, _ = workload_file
    records = load_workload(path)
    report = replay_workload(
        lambda backend: QueryEngine(corpus, band=4, dtw_backend=backend),
        records, workers=2,
    )
    assert report.ok
    # One check per record per (backend, mode).
    assert len(report.checks) == len(records) * 4
    assert {check.mode for check in report.checks} == {"serial",
                                                       "concurrent"}
    assert "PARITY OK" in report.summary()


def test_replay_detects_a_changed_answer(workload_file, corpus):
    path, _ = workload_file
    records = load_workload(path)
    # Corrupt one recorded distance and one survivor set.
    records[0]["results"][0][1] += 1.0
    if records[1]["results"]:
        records[1]["results"].pop(0)
    report = replay_workload(
        lambda backend: QueryEngine(corpus, band=4, dtw_backend=backend),
        records, backends=("vectorized",), modes=("serial",),
    )
    assert not report.ok
    assert len(report.failures) >= 1
    assert "FAILED" in report.summary()
    details = " ".join(check.detail for check in report.failures)
    assert "distance diff" in details or "survivor sets" in details


def test_slow_query_gate_restricts_capture(corpus, tmp_path):
    path = tmp_path / "wl.jsonl"
    obs = Observability.to_files(workload_out=path, slow_query_ms=10_000)
    engine = QueryEngine(corpus, band=4, obs=obs)
    engine.knn(corpus[0], 3)
    obs.close()
    assert load_workload(path) == []      # nothing was that slow


def test_capture_under_many_threads(corpus, tmp_path):
    path = tmp_path / "wl.jsonl"
    obs = Observability.to_files(workload_out=path)
    engine = QueryEngine(corpus, band=4, obs=obs)
    rng = np.random.default_rng(43)
    queries = [corpus[i] + 0.2 * rng.normal(size=64) for i in range(12)]
    run_concurrently(lambda query: engine.knn(query, 3), queries)
    obs.close()

    records = load_workload(path)
    assert len(records) == len(queries)   # no record lost to interleaving
    for line in open(path):
        json.loads(line)                  # every line intact JSON
    # Completion order is arbitrary; match by query id digest.
    replayed = replay_workload(
        lambda backend: QueryEngine(corpus, band=4, dtw_backend=backend),
        records, backends=("vectorized",), modes=("serial",),
    )
    assert replayed.ok


def test_load_workload_skips_damaged_lines(tmp_path):
    path = tmp_path / "wl.jsonl"
    recorder = WorkloadRecorder(path)
    recorder({"schema": 1, "query_id": "x", "kind": "knn",
              "params": {"k": 3}, "query": [1.0], "results": []})
    recorder.close()
    with open(path, "a") as handle:
        handle.write("half a rec")
        handle.write("\n" + json.dumps({"kind": "knn"}) + "\n")
    records = load_workload(path)
    assert len(records) == 1


def test_empty_report_is_ok():
    assert ReplayReport().ok
    assert replay_workload(lambda backend: None, []).ok

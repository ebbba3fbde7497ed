"""The scenario-matrix runner: shape, determinism, recording."""

import pytest

from repro.hum.degrade import DEFAULT_SEVERITIES, scenario_names
from repro.music.corpus import generate_corpus, segment_corpus
from repro.obs import Observability
from repro.qbh.quality import ScenarioCell, run_scenario_matrix
from repro.qbh.system import QueryByHummingSystem


@pytest.fixture(scope="module")
def system():
    melodies = segment_corpus(generate_corpus(5, seed=21), per_song=3,
                              seed=21)
    return QueryByHummingSystem(melodies, delta=0.1)


class TestRunScenarioMatrix:
    def test_matrix_covers_every_cell(self, system):
        matrix = run_scenario_matrix(
            system, scenarios=("transposition", "jitter"),
            severities=(0.25, 1.0), queries_per_cell=2, k=10, seed=1)
        assert len(matrix.cells) == 4
        assert matrix.queries == 8
        assert matrix.db_size == len(system)
        assert {(c.scenario, c.severity) for c in matrix.cells} == {
            ("transposition", 0.25), ("transposition", 1.0),
            ("jitter", 0.25), ("jitter", 1.0),
        }
        for cell in matrix.cells:
            assert cell.queries == 2
            assert len(cell.contour_ranks) == 2
            assert len(cell.latencies_s) == 2
            assert all(r >= 1 for r in cell.ranks)
            assert all(lat >= 0 for lat in cell.latencies_s)

    def test_default_matrix_covers_every_scenario_and_severity(self,
                                                                system):
        matrix = run_scenario_matrix(system, queries_per_cell=1, k=10,
                                     seed=6)
        assert len(scenario_names()) >= 4 and len(DEFAULT_SEVERITIES) >= 3
        assert [(c.scenario, c.severity) for c in matrix.cells] == [
            (s, v) for s in scenario_names() for v in DEFAULT_SEVERITIES
        ]
        for cell in matrix.cells:
            assert len(cell.ranks) == 1
            for k in (1, 5, 10):
                assert 0.0 <= cell.recall(k) <= 1.0
            assert 0.0 <= cell.mrr <= 1.0
            assert 0.0 <= cell.contour_recall(10) <= 1.0

    def test_same_seed_reproduces_ranks(self, system):
        kwargs = dict(scenarios=("jitter",), severities=(1.0,),
                      queries_per_cell=2, k=5, seed=9)
        a = run_scenario_matrix(system, **kwargs)
        b = run_scenario_matrix(system, **kwargs)
        assert a.cells[0].ranks == b.cells[0].ranks
        assert a.cells[0].contour_ranks == b.cells[0].contour_ranks

    def test_mild_degradation_keeps_recall_high(self, system):
        matrix = run_scenario_matrix(
            system, scenarios=("transposition",), severities=(0.25,),
            queries_per_cell=3, k=10, seed=2)
        (cell,) = matrix.cells
        assert cell.recall(10) >= 2 / 3

    def test_every_query_recorded_through_obs(self, system):
        obs = Observability()
        run_scenario_matrix(system, scenarios=("tempo",),
                            severities=(0.5,), queries_per_cell=2,
                            k=5, seed=3, obs=obs)
        counters = obs.metrics.snapshot()["counters"]
        assert counters[
            "quality.queries_total{scenario=tempo,severity=0.5}"] == 2

    def test_unknown_scenario_rejected(self, system):
        with pytest.raises(ValueError, match="unknown scenarios"):
            run_scenario_matrix(system, scenarios=("autotune",))

    def test_to_dict_and_table_render(self, system):
        matrix = run_scenario_matrix(
            system, scenarios=("note_drop",), severities=(0.5,),
            queries_per_cell=1, k=10, seed=4)
        doc = matrix.to_dict()
        assert doc["db_size"] == len(system)
        [cell] = doc["scenarios"]
        assert set(cell) == {
            "scenario", "severity", "queries", "recall_at_1",
            "recall_at_5", "recall_at_10", "mrr", "contour_recall_at_10",
            "p50_ms", "p95_ms",
        }
        table = matrix.format_table()
        assert "note_drop" in table
        assert "contour r@10" in table

    def test_cell_keys_match_trace_side_aggregate(self, system, tmp_path):
        """The in-process matrix and the trace-replayed matrix must
        speak the same row schema — one table, two sources."""
        import json

        from repro.obs.analysis import TraceReadStats, analyze_traces, \
            read_traces

        trace = tmp_path / "trace.jsonl"
        obs = Observability.to_files(trace_out=trace)
        matrix = run_scenario_matrix(
            system, scenarios=("jitter",), severities=(0.5,),
            queries_per_cell=2, k=10, seed=5, obs=obs)
        obs.close()
        read = TraceReadStats()
        report = analyze_traces(read_traces(trace, read), read)
        [trace_row] = [cell.to_dict() for cell in report.quality.rows()]
        [local_row] = [cell.to_dict() for cell in matrix.cells]
        assert set(trace_row) == set(local_row)
        for key in ("scenario", "severity", "queries", "recall_at_1",
                    "recall_at_10", "mrr", "contour_recall_at_10"):
            assert trace_row[key] == local_row[key]


class TestScenarioCell:
    def test_empty_cell_is_zero_not_crash(self):
        cell = ScenarioCell(scenario="jitter", severity=0.5)
        assert cell.recall(10) == 0.0
        assert cell.mrr == 0.0
        assert cell.contour_recall(10) is None
        assert cell.to_dict()["p50_ms"] is None

    def test_recall_and_mrr_math(self):
        cell = ScenarioCell(scenario="jitter", severity=0.5,
                            ranks=[1, 4, 20])
        assert cell.recall(1) == pytest.approx(1 / 3)
        assert cell.recall(5) == pytest.approx(2 / 3)
        assert cell.recall(10) == pytest.approx(2 / 3)
        assert cell.mrr == pytest.approx((1 + 0.25 + 0.05) / 3)

"""Tests for the command-line interface (full lifecycle on disk)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_corpus_defaults(self):
        args = build_parser().parse_args(["corpus", "--out", "x"])
        assert args.songs == 50
        assert args.per_song == 20

    def test_index_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["index", "--corpus", "c", "--out", "o", "--transform", "svd"]
            )

    @pytest.mark.parametrize("command", [
        ["query", "--index", "i", "--hum", "h"],
        ["serve", "--index", "i", "--hum", "h"],
        ["bench-serve"],
        ["quality"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("k", ["0", "abc"])
    def test_k_below_one_is_a_usage_error(self, command, k, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["-k", k])
        assert exit_info.value.code == 2
        assert f"k must be an integer >= 1, got '{k}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["query", "serve"])
    def test_workers_flag_is_a_usage_error(self, command, capsys):
        """The per-batch pools are gone; their flag is refused, not
        silently ignored."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                [command, "--index", "i", "--hum", "h", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestLifecycle:
    def test_corpus_index_hum_query(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        index_file = str(tmp_path / "index.npz")
        hum_file = str(tmp_path / "hum.npy")

        assert main(["corpus", "--songs", "5", "--per-song", "10",
                     "--seed", "3", "--out", corpus_dir]) == 0
        assert main(["index", "--corpus", corpus_dir, "--out", index_file,
                     "--delta", "0.1"]) == 0
        assert main(["hum", "--corpus", corpus_dir, "--melody", "7",
                     "--seed", "4", "--out", hum_file]) == 0
        assert main(["query", "--index", index_file, "--hum", hum_file,
                     "-k", "5"]) == 0

        output = capsys.readouterr().out
        assert "50 melodies" in output
        assert "indexed 50 melodies" in output
        assert "DTW distance" in output

    def test_query_kernel_backends_agree(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        index_file = str(tmp_path / "index.npz")
        hum_file = str(tmp_path / "hum.npy")
        main(["corpus", "--songs", "3", "--per-song", "5", "--out", corpus_dir])
        main(["index", "--corpus", corpus_dir, "--out", index_file])
        main(["hum", "--corpus", corpus_dir, "--melody", "2",
              "--out", hum_file])
        outputs = {}
        for backend in ("vectorized", "scalar"):
            assert main(["query", "--index", index_file, "--hum", hum_file,
                         "-k", "4", "--dtw-backend", backend]) == 0
            out = capsys.readouterr().out
            outputs[backend] = [line for line in out.splitlines()
                                if "DTW distance" in line]
        assert outputs["vectorized"] == outputs["scalar"]
        assert len(outputs["scalar"]) == 4

    def test_query_kernel_multi_hum_batch(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        index_file = str(tmp_path / "index.npz")
        hum_a = str(tmp_path / "a.npy")
        hum_b = str(tmp_path / "b.npy")
        main(["corpus", "--songs", "3", "--per-song", "5", "--out", corpus_dir])
        main(["index", "--corpus", corpus_dir, "--out", index_file])
        main(["hum", "--corpus", corpus_dir, "--melody", "1",
              "--out", hum_a])
        main(["hum", "--corpus", corpus_dir, "--melody", "6", "--seed", "9",
              "--out", hum_b])
        assert main(["query", "--index", index_file, "--hum", hum_a, hum_b,
                     "-k", "3", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "hums=2" in out
        assert out.count("DTW distance") == 6
        assert "merged filter cascade" in out

    def test_query_with_midi_hum(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        index_file = str(tmp_path / "index.npz")
        main(["corpus", "--songs", "3", "--per-song", "5", "--out", corpus_dir])
        main(["index", "--corpus", corpus_dir, "--out", index_file])
        midi_file = str(tmp_path / "corpus" / "melody_00002.mid")
        assert main(["query", "--index", index_file, "--hum", midi_file,
                     "-k", "3"]) == 0
        out = capsys.readouterr().out
        # Querying with an exact corpus melody must return it first.
        first_result = [line for line in out.splitlines() if line.strip().startswith("1.")]
        assert first_result and "0.000" in first_result[0]

    def test_hum_out_of_range(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        main(["corpus", "--songs", "2", "--per-song", "3", "--out", corpus_dir])
        code = main(["hum", "--corpus", corpus_dir, "--melody", "999",
                     "--out", str(tmp_path / "h.npy")])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_demo(self, capsys):
        assert main(["demo", "--songs", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "database: 100 melodies" in out
        assert "<-- target" in out

    def test_assess_command(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        hum_file = str(tmp_path / "hum.npy")
        main(["corpus", "--songs", "3", "--per-song", "5", "--out", corpus_dir])
        main(["hum", "--corpus", corpus_dir, "--melody", "4",
              "--out", hum_file])
        assert main(["assess", "--corpus", corpus_dir, "--melody", "4",
                     "--hum", hum_file]) == 0
        out = capsys.readouterr().out
        assert "grade:" in out
        assert "pitch error" in out

    def test_assess_out_of_range(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        hum_file = str(tmp_path / "hum.npy")
        main(["corpus", "--songs", "2", "--per-song", "3", "--out", corpus_dir])
        main(["hum", "--corpus", corpus_dir, "--melody", "0", "--out", hum_file])
        assert main(["assess", "--corpus", corpus_dir, "--melody", "99",
                     "--hum", hum_file]) == 2

    def test_analyze_command(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        main(["corpus", "--songs", "3", "--per-song", "5", "--out", corpus_dir])
        assert main(["analyze", "--corpus", corpus_dir, "--no-keys"]) == 0
        out = capsys.readouterr().out
        assert "melodies: 15" in out
        assert "duplicate groups" in out

    def test_tune_command(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        main(["corpus", "--songs", "4", "--per-song", "8", "--out", corpus_dir])
        assert main(["tune", "--corpus", corpus_dir, "--queries", "2",
                     "--grid", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "recommended feature count:" in out

    def test_experiment_command_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["experiment", "scaling"]) == 0
        out = capsys.readouterr().out
        assert "db_size" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_table_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "delta=0.1" in out

    def test_export_command(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        main(["corpus", "--songs", "2", "--per-song", "3", "--out", corpus_dir])
        assert main(["export", "--corpus", corpus_dir, "--melody", "1"]) == 0
        out = capsys.readouterr().out
        assert "X: 1" in out and "K: C" in out

    def test_export_to_file(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        abc_file = str(tmp_path / "tune.abc")
        main(["corpus", "--songs", "2", "--per-song", "3", "--out", corpus_dir])
        assert main(["export", "--corpus", corpus_dir, "--melody", "0",
                     "--out", abc_file]) == 0
        with open(abc_file) as handle:
            assert "T: " in handle.read()

    def test_poor_profile_hum(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        hum_file = str(tmp_path / "hum.npy")
        main(["corpus", "--songs", "2", "--per-song", "3", "--out", corpus_dir])
        assert main(["hum", "--corpus", corpus_dir, "--melody", "0",
                     "--profile", "poor", "--out", hum_file]) == 0
        assert np.load(hum_file).size > 0


class TestObservabilityFlags:
    @pytest.fixture()
    def pipeline(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        index_file = str(tmp_path / "index.npz")
        hum_file = str(tmp_path / "hum.npy")
        main(["corpus", "--songs", "3", "--per-song", "5", "--out", corpus_dir])
        main(["index", "--corpus", corpus_dir, "--out", index_file])
        main(["hum", "--corpus", corpus_dir, "--melody", "2",
              "--out", hum_file])
        return index_file, hum_file

    def test_stats_json_to_stdout(self, pipeline, capsys):
        import json

        index_file, hum_file = pipeline
        capsys.readouterr()
        assert main(["query", "--index", index_file, "--hum", hum_file,
                     "-k", "3", "--stats-json"]) == 0
        captured = capsys.readouterr()
        # stdout is the JSON document alone; diagnostics go to stderr.
        payload = json.loads(captured.out)
        assert payload["k"] == 3
        assert len(payload["results"]) == 3
        assert payload["cascade"]["corpus_size"] == payload["db"] == 15
        assert "DTW distance" not in captured.out
        assert "db=15" in captured.err

    def test_stats_json_to_file_keeps_rows_on_stdout(self, pipeline,
                                                     tmp_path, capsys):
        import json

        index_file, hum_file = pipeline
        stats_file = str(tmp_path / "stats.json")
        capsys.readouterr()
        assert main(["query", "--index", index_file, "--hum", hum_file,
                     "-k", "2", "--stats-json", stats_file]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("DTW distance") == 2
        assert f"wrote stats to {stats_file}" in captured.err
        with open(stats_file) as handle:
            payload = json.load(handle)
        # The JSON rows match the human-readable rows on stdout.
        for name, _ in payload["results"]:
            assert name in captured.out
        assert payload["cascade"]["results"] >= 2

    def test_trace_and_metrics_exports(self, pipeline, tmp_path, capsys):
        import json

        from repro.engine import CascadeStats

        index_file, hum_file = pipeline
        trace_file = str(tmp_path / "trace.jsonl")
        metrics_file = str(tmp_path / "metrics.json")
        assert main(["query", "--index", index_file, "--hum", hum_file,
                     "-k", "3", "--trace-out", trace_file,
                     "--metrics-out", metrics_file]) == 0
        out = capsys.readouterr().out
        assert f"wrote trace spans to {trace_file}" in out
        assert f"wrote metrics snapshot to {metrics_file}" in out

        with open(trace_file) as handle:
            spans = [json.loads(line) for line in handle]
        stats = CascadeStats.from_trace(spans)
        assert stats.corpus_size == 15
        assert stats.results == 3
        with open(metrics_file) as handle:
            snap = json.load(handle)
        assert snap["counters"]["engine.queries_total{kind=knn}"] == 1
        assert (snap["counters"]["engine.candidates_refined_total"]
                == stats.dtw_computations)

    def test_slow_query_threshold_zero_reports_on_stderr(self, pipeline,
                                                         capsys):
        index_file, hum_file = pipeline
        capsys.readouterr()
        assert main(["query", "--index", index_file, "--hum", hum_file,
                     "-k", "2", "--slow-query-ms", "0"]) == 0
        assert "slow query:" in capsys.readouterr().err

    def test_batch_stats_json_keyed_by_hum_path(self, pipeline, tmp_path,
                                                capsys):
        import json

        index_file, hum_file = pipeline
        assert main(["query", "--index", index_file,
                     "--hum", hum_file, hum_file,
                     "-k", "2", "--stats-json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert set(payload["results"]) == {hum_file}
        assert payload["cascade"]["corpus_size"] == 2 * 15
        assert "hums=2" in captured.err


class TestTelemetryCommands:
    """``repro obs report`` and the ``repro perf`` group."""

    @pytest.fixture()
    def pipeline(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        index_file = str(tmp_path / "index.npz")
        hum_file = str(tmp_path / "hum.npy")
        main(["corpus", "--songs", "3", "--per-song", "5", "--out", corpus_dir])
        main(["index", "--corpus", corpus_dir, "--out", index_file])
        main(["hum", "--corpus", corpus_dir, "--melody", "2",
              "--out", hum_file])
        return index_file, hum_file

    def test_obs_report_matches_stats_json(self, pipeline, tmp_path, capsys):
        import json

        index_file, hum_file = pipeline
        trace_file = str(tmp_path / "trace.jsonl")
        stats_file = str(tmp_path / "stats.json")
        assert main(["query", "--index", index_file,
                     "--hum", hum_file, hum_file, "-k", "3",
                     "--trace-out", trace_file,
                     "--stats-json", stats_file]) == 0
        capsys.readouterr()

        assert main(["obs", "report", "--trace", trace_file]) == 0
        table = capsys.readouterr().out
        assert "traces: 2 queries" in table
        assert "tightness" in table

        report_file = str(tmp_path / "report.json")
        assert main(["obs", "report", "--trace", trace_file,
                     "--format", "json", "--out", report_file]) == 0
        with open(report_file) as handle:
            report = json.load(handle)
        with open(stats_file) as handle:
            stats = json.load(handle)["cascade"]
        # The report's pruning table reproduces --stats-json exactly:
        # both are projections of the same StageStats objects.
        assert report["queries"] == 2
        assert report["corpus_candidates"] == stats["corpus_size"]
        assert report["dtw_computations"] == stats["dtw_computations"]
        assert report["results"] == stats["results"]
        by_name = {row["name"]: row for row in report["pruning"]}
        for stage in stats["stages"]:
            assert by_name[stage["name"]]["candidates_in"] == \
                stage["candidates_in"]
            assert by_name[stage["name"]]["pruned"] == stage["pruned"]

        capsys.readouterr()
        assert main(["obs", "report", "--trace", trace_file,
                     "--format", "folded"]) == 0
        folded = capsys.readouterr().out
        for line in folded.strip().splitlines():
            stack, value = line.rsplit(" ", 1)
            assert stack.startswith("query")
            assert int(value) >= 0

    def test_obs_report_fails_without_complete_traces(self, tmp_path,
                                                      capsys):
        trace_file = tmp_path / "empty.jsonl"
        trace_file.write_text("garbage {\n")
        assert main(["obs", "report", "--trace", str(trace_file)]) == 1
        captured = capsys.readouterr()
        assert "no valid spans" in captured.err
        assert "1 bad" in captured.err
        # Hard error, not a bare all-zero table on stdout.
        assert "latency" not in captured.out

    def test_obs_report_fails_on_empty_file(self, tmp_path, capsys):
        trace_file = tmp_path / "empty.jsonl"
        trace_file.write_text("")
        assert main(["obs", "report", "--trace", str(trace_file)]) == 1
        captured = capsys.readouterr()
        assert "no valid spans" in captured.err
        assert "0 line(s) read" in captured.err
        assert captured.out == ""

    def test_trace_append_accumulates_across_runs(self, pipeline, tmp_path):
        import json

        index_file, hum_file = pipeline
        trace_file = str(tmp_path / "trace.jsonl")
        base = ["query", "--index", index_file, "--hum", hum_file,
                "-k", "2", "--trace-out", trace_file]
        assert main(base) == 0
        once = sum(1 for _ in open(trace_file))
        assert main(base + ["--trace-append"]) == 0
        assert sum(1 for _ in open(trace_file)) == 2 * once
        # Default (no flag) truncates back to one run's spans.
        assert main(base) == 0
        assert sum(1 for _ in open(trace_file)) == once
        roots = [json.loads(line) for line in open(trace_file)]
        assert sum(1 for s in roots if s["parent_id"] is None) == 1

    def test_workload_capture_and_replay_roundtrip(self, pipeline, tmp_path,
                                                   capsys):
        import json

        index_file, hum_file = pipeline
        workload_file = str(tmp_path / "workload.jsonl")
        assert main(["query", "--index", index_file, "--hum", hum_file,
                     "-k", "3", "--workload-out", workload_file]) == 0
        assert f"wrote workload records to {workload_file}" in \
            capsys.readouterr().out

        assert main(["perf", "replay", "--workload", workload_file,
                     "--index", index_file]) == 0
        assert "replay PARITY OK" in capsys.readouterr().out

        # Tamper with a recorded distance: replay must fail.
        records = [json.loads(line) for line in open(workload_file)]
        records[0]["results"][0][1] += 5.0
        with open(workload_file, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        assert main(["perf", "replay", "--workload", workload_file,
                     "--index", index_file,
                     "--backends", "vectorized",
                     "--modes", "serial"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_perf_record_and_check_gate(self, tmp_path, capsys):
        import json

        bench_file = str(tmp_path / "BENCH_x.json")
        history_file = str(tmp_path / "history.jsonl")
        with open(bench_file, "w") as handle:
            json.dump({"workload": {"db": 10},
                       "timings_ms": {"cascade": 10.0}}, handle)
        assert main(["perf", "record", "--bench", "cascade",
                     "--json", bench_file, "--history", history_file]) == 0

        # Seeded single-entry history: plain check passes...
        assert main(["perf", "check", "--history", history_file]) == 0
        assert "PASS" in capsys.readouterr().out
        # ...and the synthetic 25% slowdown self-test fails.
        assert main(["perf", "check", "--history", history_file,
                     "--inject-slowdown", "1.25",
                     "--min-effect-ms", "0.5"]) == 1
        assert "FAIL" in capsys.readouterr().out

        # A genuinely regressed second run fails the real gate.
        with open(bench_file, "w") as handle:
            json.dump({"workload": {"db": 10},
                       "timings_ms": {"cascade": 14.0}}, handle)
        assert main(["perf", "record", "--bench", "cascade",
                     "--json", bench_file, "--history", history_file]) == 0
        gate_file = str(tmp_path / "gate.json")
        assert main(["perf", "check", "--history", history_file,
                     "--json-out", gate_file]) == 1
        with open(gate_file) as handle:
            gate = json.load(handle)
        assert not gate["ok"]
        assert gate["findings"][0]["status"] == "regression"

    def test_perf_check_empty_history_is_an_error(self, tmp_path, capsys):
        missing = str(tmp_path / "none.jsonl")
        assert main(["perf", "check", "--history", missing]) == 2
        assert "no readable history entries" in capsys.readouterr().err

    def test_perf_check_recall_floor_gate(self, tmp_path, capsys):
        import json

        bench_file = str(tmp_path / "BENCH_q.json")
        history_file = str(tmp_path / "history.jsonl")
        with open(bench_file, "w") as handle:
            json.dump({"workload": {"db": 10},
                       "timings_ms": {"jitter@1.recall_at_10": 1.0}},
                      handle)
        assert main(["perf", "record", "--bench", "quality",
                     "--json", bench_file, "--history", history_file]) == 0
        assert main(["perf", "check", "--history", history_file]) == 0
        capsys.readouterr()
        # Injected degradation *divides* the floor metric and fails.
        assert main(["perf", "check", "--history", history_file,
                     "--inject-slowdown", "1.5"]) == 1
        assert "below a quality floor" in capsys.readouterr().out

        # A second run whose recall dropped fails the real gate...
        with open(bench_file, "w") as handle:
            json.dump({"workload": {"db": 10},
                       "timings_ms": {"jitter@1.recall_at_10": 0.6}},
                      handle)
        assert main(["perf", "record", "--bench", "quality",
                     "--json", bench_file, "--history", history_file]) == 0
        assert main(["perf", "check", "--history", history_file]) == 1
        capsys.readouterr()
        # ...unless --min-effect-floor absorbs the whole drop.
        assert main(["perf", "check", "--history", history_file,
                     "--min-effect-floor", "0.5"]) == 0


class TestQualityCommand:
    """``repro quality`` and ``repro obs report --scenarios``."""

    def test_matrix_runs_and_exports(self, tmp_path, capsys):
        import json

        trace_file = str(tmp_path / "q" / "trace.jsonl")
        metrics_file = str(tmp_path / "q" / "metrics.json")
        json_file = str(tmp_path / "q" / "matrix.json")
        assert main(["quality", "--songs", "4", "--per-song", "2",
                     "--queries", "1",
                     "--scenario", "transposition", "jitter",
                     "--severity", "0.25", "1.0", "--seed", "5",
                     "--trace-out", trace_file,
                     "--metrics-out", metrics_file,
                     "--json-out", json_file]) == 0
        captured = capsys.readouterr()
        assert "scenario matrix: 4 queries" in captured.out
        assert "contour r@10" in captured.out

        with open(json_file) as handle:
            doc = json.load(handle)
        assert doc["db_size"] == 8
        assert len(doc["scenarios"]) == 4
        with open(metrics_file) as handle:
            counters = json.load(handle)["counters"]
        assert counters["quality.queries_total"
                        "{scenario=jitter,severity=1}"] == 1

        # The exported spans replay into the same matrix offline.
        capsys.readouterr()
        assert main(["obs", "report", "--trace", trace_file,
                     "--scenarios"]) == 0
        table = capsys.readouterr().out
        assert "scenario matrix: 4 queries, 2 scenarios" in table
        assert "jitter" in table and "transposition" in table

    def test_scenarios_report_without_quality_spans(self, tmp_path,
                                                    capsys):
        import json

        span = {"name": "query", "trace_id": 1, "span_id": 1,
                "parent_id": None, "start_s": 0.0, "duration_s": 0.1,
                "attrs": {}}
        trace_file = tmp_path / "trace.jsonl"
        trace_file.write_text(json.dumps(span) + "\n")
        assert main(["obs", "report", "--trace", str(trace_file),
                     "--scenarios"]) == 0
        assert "no quality:query spans" in capsys.readouterr().out


class TestShardedTelemetryCommands:
    """Sharded tracing + the ``obs export`` / ``obs top`` group."""

    @pytest.fixture()
    def sharded_artifacts(self, tmp_path):
        """One sharded traced query: (trace.jsonl, metrics.json)."""
        corpus_dir = str(tmp_path / "corpus")
        index_file = str(tmp_path / "index.npz")
        hum_file = str(tmp_path / "hum.npy")
        trace_file = str(tmp_path / "trace.jsonl")
        metrics_file = str(tmp_path / "metrics.json")
        main(["corpus", "--songs", "3", "--per-song", "5",
              "--out", corpus_dir])
        main(["index", "--corpus", corpus_dir, "--out", index_file])
        main(["hum", "--corpus", corpus_dir, "--melody", "2",
              "--out", hum_file])
        assert main(["query", "--index", index_file, "--hum", hum_file,
                     "-k", "3", "--shards", "2",
                     "--trace-out", trace_file,
                     "--metrics-out", metrics_file]) == 0
        return trace_file, metrics_file

    def test_sharded_trace_is_one_connected_tree(self, sharded_artifacts):
        import json

        trace_file, _ = sharded_artifacts
        spans = [json.loads(line) for line in open(trace_file)]
        fanout = [s for s in spans if s["name"] == "shard:fanout"]
        workers = [s for s in spans if s["name"] == "shard:query"]
        assert len(fanout) == 1
        assert len(workers) == 2
        assert all(s["attrs"]["remote"] for s in workers)
        assert {s["attrs"]["shard"] for s in workers} == {0, 1}
        trace_id = fanout[0]["trace_id"]
        members = [s for s in spans if s["trace_id"] == trace_id]
        ids = {s["span_id"] for s in members}
        assert all(s["parent_id"] in ids for s in members
                   if s["parent_id"] is not None)

    def test_obs_report_per_shard_renders_table(self, sharded_artifacts,
                                                capsys):
        trace_file, _ = sharded_artifacts
        capsys.readouterr()
        assert main(["obs", "report", "--trace", trace_file,
                     "--per-shard"]) == 0
        table = capsys.readouterr().out
        assert "per-shard (2 shards" in table
        assert "work" in table and "pruned" in table

    def test_obs_export_prometheus_to_stdout(self, sharded_artifacts,
                                             capsys):
        _, metrics_file = sharded_artifacts
        capsys.readouterr()
        assert main(["obs", "export", "--metrics", metrics_file]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_shard_fanouts_total counter" in text
        assert 'repro_shard_cpu_seconds_total{shard="0"}' in text

    def test_obs_export_jsonl_feeds_top(self, sharded_artifacts, tmp_path,
                                        capsys):
        _, metrics_file = sharded_artifacts
        series_file = str(tmp_path / "series.jsonl")
        assert main(["obs", "export", "--metrics", metrics_file,
                     "--format", "jsonl", "--out", series_file]) == 0
        assert main(["obs", "export", "--metrics", metrics_file,
                     "--format", "jsonl", "--out", series_file]) == 0
        capsys.readouterr()
        assert main(["obs", "top", "--series", series_file]) == 0
        out = capsys.readouterr().out
        assert "2 snapshot(s)" in out
        assert "shard.fanouts_total" in out

    def test_obs_top_on_snapshot(self, sharded_artifacts, capsys):
        _, metrics_file = sharded_artifacts
        capsys.readouterr()
        assert main(["obs", "top", "--metrics", metrics_file]) == 0
        out = capsys.readouterr().out
        assert "shard.lifecycle_total" in out

    def test_obs_export_jsonl_requires_out(self, sharded_artifacts, capsys):
        _, metrics_file = sharded_artifacts
        assert main(["obs", "export", "--metrics", metrics_file,
                     "--format", "jsonl"]) == 2
        assert "needs --out" in capsys.readouterr().err

    def test_obs_export_rejects_non_snapshot(self, tmp_path, capsys):
        bogus = tmp_path / "not_metrics.json"
        bogus.write_text('{"results": []}')
        assert main(["obs", "export", "--metrics", str(bogus)]) == 2
        assert "not a metrics snapshot" in capsys.readouterr().err

    def test_schema_checker_accepts_the_sharded_trace(self,
                                                      sharded_artifacts):
        import importlib.util
        import pathlib

        trace_file, metrics_file = sharded_artifacts
        tool = (pathlib.Path(__file__).resolve().parents[1]
                / "tools" / "check_obs_schema.py")
        spec = importlib.util.spec_from_file_location("check_obs_schema",
                                                      tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main(["--trace", trace_file,
                            "--metrics", metrics_file,
                            "--expect-sharded"]) == 0
        # an unsharded trace must fail the --expect-sharded gate
        errors = []
        module.check_trace(trace_file, errors, expect_sharded=True)
        assert not errors

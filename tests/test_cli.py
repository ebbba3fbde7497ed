"""Tests for the command-line interface (full lifecycle on disk)."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main

#: (argv without the flag, count flag); each flag takes an integer >= 1.
COUNT_FLAGS = [
    (["corpus", "--out", "x"], "--songs"),
    (["corpus", "--out", "x"], "--per-song"),
    (["ingest", "--corpus", "c", "--store-dir", "s"], "--features"),
    (["ingest", "--corpus", "c", "--store-dir", "s"], "--normal-length"),
    (["serve", "--store-dir", "s", "--hum", "h.npy"], "--clients"),
    (["serve", "--store-dir", "s", "--hum", "h.npy"], "--repeat"),
    (["quality"], "--songs"),
    (["quality"], "--per-song"),
    (["quality"], "--queries"),
    (["quality"], "--normal-length"),
]


#: (file name, writer) per malformed hum input; none is a pitch series.
BAD_HUMS = {
    "nan": ("nan.npy", lambda path: np.save(path, np.array([60.0, np.nan]))),
    "inf": ("inf.npy", lambda path: np.save(path, np.array([np.inf, 60.0]))),
    "empty": ("empty.npy", lambda path: np.save(path, np.array([]))),
    "2d": ("grid.npy", lambda path: np.save(path, np.ones((2, 3)))),
    "missing": ("missing.npy", lambda path: None),
    "txt": ("hum.txt", lambda path: Path(path).write_text("60 62 64\n")),
    "bad-midi": ("hum.mid", lambda path: Path(path).write_bytes(b"noise")),
}


class TestParser:
    @pytest.fixture(autouse=True)
    def _hum_file(self, tmp_path, monkeypatch):
        """``--hum`` loads its file while parsing; the argv's is real."""
        monkeypatch.chdir(tmp_path)
        np.save("h.npy", np.full(40, 60.0))

    @pytest.mark.parametrize("bad", BAD_HUMS)
    @pytest.mark.parametrize("command", ["query", "serve"])
    def test_malformed_hum_is_a_usage_error(self, command, bad, capsys):
        """A hum that is not a finite, non-empty 1-D series is refused
        while parsing, naming the file: no traceback, no run."""
        name, write = BAD_HUMS[bad]
        write(name)
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--store-dir", "s", "--hum", "h.npy", name])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --hum: {name}: " in err
        assert "Traceback" not in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_corpus_defaults(self):
        args = build_parser().parse_args(["corpus", "--out", "x"])
        assert args.songs == 50
        assert args.per_song == 20

    @pytest.mark.parametrize("command", [
        ["query", "--store-dir", "s", "--hum", "h.npy"],
        ["serve", "--store-dir", "s", "--hum", "h.npy"],
        ["quality"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("k", ["0", "abc"])
    def test_k_below_one_is_a_usage_error(self, command, k, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["-k", k])
        assert exit_info.value.code == 2
        assert (f"argument -k: must be an integer >= 1, got '{k}'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, flag", COUNT_FLAGS,
                             ids=[f"{command[0]}-{flag[2:]}"
                                  for command, flag in COUNT_FLAGS])
    def test_count_flag_below_one_is_a_usage_error(self, command, flag,
                                                   capsys):
        """A zero count is refused up front, not run into a crash or an
        empty corpus."""
        with pytest.raises(SystemExit) as exit_info:
            main(command + [flag, "0"])
        assert exit_info.value.code == 2
        assert (f"argument {flag}: must be an integer >= 1, got '0'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["query", "serve"])
    def test_workers_flag_is_a_usage_error(self, command, capsys):
        """The per-batch pools are gone; their flag is refused, not
        silently ignored."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--store-dir", "s", "--hum",
                                       "h.npy", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_removed_commands_are_usage_errors(self, capsys):
        """The history gate, the serving benchmark, the index-file
        builder and the commands outside query by humming (singing
        grades, corpus statistics, ABC export, feature-count tuning, the
        in-memory demo), workload replay and the metrics export and
        terminal views are gone; their commands are refused, not
        silently run, an index file is no longer an input, and the DTW
        kernel is no longer an option."""
        for argv in (["perf", "record", "--bench", "cascade", "--json", "b"],
                     ["perf", "check"],
                     ["perf", "replay", "--workload", "w", "--store-dir", "s"],
                     ["obs", "export", "--metrics", "m.json"],
                     ["obs", "top", "--metrics", "m.json"],
                     ["bench-" "serve", "--quick"],
                     ["index", "--out", "o"],
                     ["assess", "--corpus", "c", "--melody", "0", "--hum", "h.npy"],
                     ["analyze", "--corpus", "c"],
                     ["export", "--corpus", "c", "--melody", "0"],
                     ["tune", "--corpus", "c"],
                     ["demo"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv
            assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--index", "i", "--hum", "h.npy"])
        assert exit_info.value.code == 2
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--store-dir", "s", "--hum", "h.npy",
                  "--dtw-" "backend", "scalar"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _command_paths(parser, prefix=()):
    """Every leaf subcommand of *parser*, as a tuple of words."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _command_paths(child, prefix + (name,))
            return
    yield prefix


def test_every_command_runs_in_the_cli_smoke_job():
    """CI's ``cli-smoke`` job runs every subcommand, so a command nothing
    exercises cannot stay behind unnoticed."""
    workflow = (Path(__file__).resolve().parents[1]
                / ".github" / "workflows" / "ci.yml").read_text()
    job = re.search(r"^  cli-smoke:\n(.*?)(?=^  \S|\Z)", workflow,
                    re.MULTILINE | re.DOTALL).group(1)
    paths = list(_command_paths(build_parser()))
    assert ("obs", "report") in paths and ("experiment",) in paths
    missing = [" ".join(path) for path in paths
               if f"repro.cli {' '.join(path)} " not in job]
    assert not missing, f"not run by the cli-smoke job: {missing}"


class TestLifecycle:
    def test_corpus_index_hum_query(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        store_dir = str(tmp_path / "store")
        hum_file = str(tmp_path / "hum.npy")

        assert main(["corpus", "--songs", "5", "--per-song", "10",
                     "--seed", "3", "--out", corpus_dir]) == 0
        assert main(["ingest", "--corpus", corpus_dir, "--store-dir", store_dir,
                     "--delta", "0.1"]) == 0
        assert main(["hum", "--corpus", corpus_dir, "--melody", "7",
                     "--seed", "4", "--out", hum_file]) == 0
        assert main(["query", "--store-dir", store_dir, "--hum", hum_file,
                     "-k", "5"]) == 0

        output = capsys.readouterr().out
        assert "50 melodies" in output
        assert "initialised 50 melodies" in output
        assert "DTW distance" in output

    def test_flagless_query_answers_like_stats_without_a_tree(
            self, tmp_path, capsys, bulk_loads):
        """``--stats`` only chooses what is printed: both invocations
        answer through the cascade, with the same rows, and neither
        bulk-loads the R*-tree only the tree routes read."""
        corpus_dir = str(tmp_path / "corpus")
        store_dir = str(tmp_path / "store")
        hum_file = str(tmp_path / "hum.npy")
        main(["corpus", "--songs", "4", "--per-song", "6", "--out",
              corpus_dir])
        main(["ingest", "--corpus", corpus_dir, "--store-dir", store_dir])
        main(["hum", "--corpus", corpus_dir, "--melody", "5", "--out",
              hum_file])
        capsys.readouterr()
        rows = {}
        for flags in ([], ["--stats"]):
            assert main(["query", "--store-dir", store_dir, "--hum",
                         hum_file, "-k", "4", *flags]) == 0
            out = capsys.readouterr().out
            rows[bool(flags)] = [line for line in out.splitlines()
                                 if "DTW distance" in line]
        assert len(rows[False]) == 4 and rows[False] == rows[True]
        assert bulk_loads == []

    def test_serve_exits_one_and_names_the_error(self, tmp_path, capsys,
                                                 monkeypatch):
        """A request that ends in ``error`` prints its reason and fails
        the run; it is not reported as a success."""
        from repro.engine import QueryEngine

        corpus_dir = str(tmp_path / "corpus")
        store_dir = str(tmp_path / "store")
        hum_file = str(tmp_path / "hum.npy")
        main(["corpus", "--songs", "2", "--per-song", "3", "--out",
              corpus_dir])
        main(["ingest", "--corpus", corpus_dir, "--store-dir", store_dir])
        main(["hum", "--corpus", corpus_dir, "--melody", "1", "--out",
              hum_file])

        def explode(self, *args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(QueryEngine, "search", explode)
        assert main(["serve", "--store-dir", store_dir, "--hum", hum_file,
                     "--clients", "2", "--repeat", "2"]) == 1
        out = capsys.readouterr().out
        assert "<error: RuntimeError: engine exploded>" in out
        assert "error=" in out

    def test_query_kernel_multi_hum_batch(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        store_dir = str(tmp_path / "store")
        hum_a = str(tmp_path / "a.npy")
        hum_b = str(tmp_path / "b.npy")
        main(["corpus", "--songs", "3", "--per-song", "5", "--out", corpus_dir])
        main(["ingest", "--corpus", corpus_dir, "--store-dir", store_dir])
        main(["hum", "--corpus", corpus_dir, "--melody", "1",
              "--out", hum_a])
        main(["hum", "--corpus", corpus_dir, "--melody", "6", "--seed", "9",
              "--out", hum_b])
        assert main(["query", "--store-dir", store_dir, "--hum", hum_a, hum_b,
                     "-k", "3", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "hums=2" in out
        assert out.count("DTW distance") == 6
        assert "merged filter cascade" in out

    def test_query_with_midi_hum(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        store_dir = str(tmp_path / "store")
        main(["corpus", "--songs", "3", "--per-song", "5", "--out", corpus_dir])
        main(["ingest", "--corpus", corpus_dir, "--store-dir", store_dir])
        midi_file = str(tmp_path / "corpus" / "melody_00002.mid")
        assert main(["query", "--store-dir", store_dir, "--hum", midi_file,
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

    def test_experiment_command_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["experiment", "scaling"]) == 0
        out = capsys.readouterr().out
        assert "db_size" in out

    def test_experiment_unknown(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "fig99"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'fig99'" in capsys.readouterr().err

    def test_experiment_table_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "delta=0.1" in out

    def test_poor_profile_hum(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        hum_file = str(tmp_path / "hum.npy")
        main(["corpus", "--songs", "2", "--per-song", "3", "--out", corpus_dir])
        assert main(["hum", "--corpus", corpus_dir, "--melody", "0",
                     "--profile", "poor", "--out", hum_file]) == 0
        assert np.load(hum_file).size > 0


def _rewrite_manifest(generation, rewrite):
    path = generation / "manifest.json"
    path.write_text(rewrite(json.loads(path.read_text())))


def _truncate_ids(generation):
    path = generation / "ids.json"
    path.write_text(path.read_text()[:10])


class TestStoreErrors:
    @pytest.mark.parametrize("command", ["query", "serve"])
    @pytest.mark.parametrize("spoil, message", [
        (None, "no CURRENT generation"),
        (lambda gen: _rewrite_manifest(gen, lambda m: json.dumps(
            dict(m, format_version=1, kind="melody"))),
         "rebuild the store with `repro ingest`"),
        (lambda gen: _rewrite_manifest(gen, lambda m: json.dumps(
            dict(m, format_version=2))),
         "rebuild the store with `repro ingest`"),
        (lambda gen: _rewrite_manifest(gen, lambda m: json.dumps(m)[:30]),
         "bad manifest"),
        (_truncate_ids, "ids file unreadable"),
    ], ids=["empty", "version-1", "version-2", "truncated", "truncated-ids"])
    def test_store_error_is_one_line_and_exit_two(
            self, tmp_path, capsys, command, spoil, message):
        """A store that cannot be opened is reported as argparse reports
        a usage error: one stderr line and status 2, no traceback."""
        store_dir = tmp_path / "store"
        hum_file = str(tmp_path / "hum.npy")
        np.save(hum_file, np.full(40, 60.0))
        if spoil is None:
            store_dir.mkdir()
        else:
            corpus_dir = str(tmp_path / "corpus")
            main(["corpus", "--songs", "1", "--per-song", "3", "--out",
                  corpus_dir])
            main(["ingest", "--corpus", corpus_dir, "--store-dir",
                  str(store_dir)])
            spoil(store_dir / "gen-000000")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--store-dir", str(store_dir), "--hum",
                  hum_file])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"repro {command}: error: ")
        assert message in err
        assert "Traceback" not in err


class TestObservabilityFlags:
    @pytest.fixture()
    def pipeline(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        store_dir = str(tmp_path / "store")
        hum_file = str(tmp_path / "hum.npy")
        main(["corpus", "--songs", "3", "--per-song", "5", "--out", corpus_dir])
        main(["ingest", "--corpus", corpus_dir, "--store-dir", store_dir])
        main(["hum", "--corpus", corpus_dir, "--melody", "2",
              "--out", hum_file])
        return store_dir, hum_file

    def test_stats_json_to_stdout(self, pipeline, capsys):
        import json

        store_dir, hum_file = pipeline
        capsys.readouterr()
        assert main(["query", "--store-dir", store_dir, "--hum", hum_file,
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

        store_dir, hum_file = pipeline
        stats_file = str(tmp_path / "stats.json")
        capsys.readouterr()
        assert main(["query", "--store-dir", store_dir, "--hum", hum_file,
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

        store_dir, hum_file = pipeline
        trace_file = str(tmp_path / "trace.jsonl")
        metrics_file = str(tmp_path / "metrics.json")
        assert main(["query", "--store-dir", store_dir, "--hum", hum_file,
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

    def test_exports_into_a_missing_directory_create_it(self, pipeline,
                                                        tmp_path):
        store_dir, hum_file = pipeline
        trace_file = tmp_path / "new" / "deeper" / "trace.jsonl"
        metrics_file = tmp_path / "new" / "metrics.json"
        assert main(["query", "--store-dir", store_dir, "--hum", hum_file,
                     "-k", "2", "--trace-out", str(trace_file),
                     "--metrics-out", str(metrics_file)]) == 0
        assert trace_file.stat().st_size > 0
        assert metrics_file.stat().st_size > 0

    def test_slow_query_threshold_zero_reports_on_stderr(self, pipeline,
                                                         capsys):
        store_dir, hum_file = pipeline
        capsys.readouterr()
        assert main(["query", "--store-dir", store_dir, "--hum", hum_file,
                     "-k", "2", "--slow-query-ms", "0"]) == 0
        assert "slow query:" in capsys.readouterr().err

    def test_batch_stats_json_keyed_by_hum_path(self, pipeline, tmp_path,
                                                capsys):
        import json

        store_dir, hum_file = pipeline
        assert main(["query", "--store-dir", store_dir,
                     "--hum", hum_file, hum_file,
                     "-k", "2", "--stats-json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert set(payload["results"]) == {hum_file}
        assert payload["cascade"]["corpus_size"] == 2 * 15
        assert "hums=2" in captured.err


class TestTelemetryCommands:
    """``repro obs report``, the one reader of an exported trace."""

    @pytest.fixture()
    def pipeline(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        store_dir = str(tmp_path / "store")
        hum_file = str(tmp_path / "hum.npy")
        main(["corpus", "--songs", "3", "--per-song", "5", "--out", corpus_dir])
        main(["ingest", "--corpus", corpus_dir, "--store-dir", store_dir])
        main(["hum", "--corpus", corpus_dir, "--melody", "2",
              "--out", hum_file])
        return store_dir, hum_file

    def test_obs_report_matches_stats_json(self, pipeline, tmp_path, capsys):
        import json

        store_dir, hum_file = pipeline
        trace_file = str(tmp_path / "trace.jsonl")
        stats_file = str(tmp_path / "stats.json")
        assert main(["query", "--store-dir", store_dir,
                     "--hum", hum_file, hum_file, "-k", "3",
                     "--trace-out", trace_file,
                     "--stats-json", stats_file]) == 0
        capsys.readouterr()

        assert main(["obs", "report", "--trace", trace_file]) == 0
        table = capsys.readouterr().out
        assert "traces: 2 queries" in table
        assert "tightness" in table
        # A single-engine trace has neither derived section.
        assert "per-shard (" not in table
        assert "scenario matrix:" not in table

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

    @pytest.mark.parametrize("bad", ["missing", "directory"])
    def test_bad_trace_path_is_a_usage_error(self, bad, tmp_path, capsys):
        path = tmp_path / bad
        if bad == "directory":
            path.mkdir()
        with pytest.raises(SystemExit) as exit_info:
            main(["obs", "report", "--trace", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --trace: {path}: " in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("command", ["query", "obs report", "report"])
    def test_output_file_under_a_missing_directory(self, command, pipeline,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        """Every file a command writes creates its missing parent
        directories, as ``--trace-out`` and ``--metrics-out`` do."""
        store_dir, hum_file = pipeline
        out = tmp_path / "new" / "deeper" / "out.txt"
        trace_file = str(tmp_path / "trace.jsonl")
        query = ["query", "--store-dir", store_dir, "--hum", hum_file,
                 "-k", "2"]
        if command == "query":
            argv = query + ["--stats-json", str(out)]
        elif command == "obs report":
            assert main(query + ["--trace-out", trace_file]) == 0
            argv = ["obs", "report", "--trace", trace_file, "--out", str(out)]
        else:
            monkeypatch.setenv("REPRO_SCALE", "smoke")
            argv = ["report", "--sections", "scaling", "--out", str(out)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert f"wrote {'stats to ' if command == 'query' else ''}" in (
            captured.out + captured.err)
        assert out.read_text().strip()

    def test_trace_append_accumulates_across_runs(self, pipeline, tmp_path):
        import json

        store_dir, hum_file = pipeline
        trace_file = str(tmp_path / "trace.jsonl")
        base = ["query", "--store-dir", store_dir, "--hum", hum_file,
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


class TestQualityCommand:
    """``repro quality`` and the scenario matrix of ``repro obs report``."""

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

        # The exported spans replay into the same matrix offline: the
        # report's table carries it because the trace has quality spans.
        capsys.readouterr()
        assert main(["obs", "report", "--trace", trace_file]) == 0
        table = capsys.readouterr().out
        assert "scenario matrix: 4 queries, 2 scenarios" in table
        assert "jitter" in table and "transposition" in table
        assert "per-shard (" not in table
        # A quality-only trace has no query, span or stage section: no
        # zero totals, no header-only tables above the matrix.
        assert table.startswith("traces: 4 spans, 0 bad lines")
        assert "0 queries" not in table and "totals:" not in table
        assert "mean ms" not in table and "tightness" not in table

    def test_scenarios_report_without_quality_spans(self, tmp_path,
                                                    capsys):
        import json

        span = {"name": "query", "trace_id": 1, "span_id": 1,
                "parent_id": None, "start_s": 0.0, "duration_s": 0.1,
                "attrs": {}}
        trace_file = tmp_path / "trace.jsonl"
        trace_file.write_text(json.dumps(span) + "\n")
        assert main(["obs", "report", "--trace", str(trace_file)]) == 0
        assert "scenario matrix:" not in capsys.readouterr().out


class TestShardedTelemetryCommands:
    """Sharded tracing and its section of ``repro obs report``."""

    @pytest.fixture()
    def sharded_artifacts(self, tmp_path):
        """One sharded traced query: (trace.jsonl, metrics.json)."""
        corpus_dir = str(tmp_path / "corpus")
        store_dir = str(tmp_path / "store")
        hum_file = str(tmp_path / "hum.npy")
        trace_file = str(tmp_path / "trace.jsonl")
        metrics_file = str(tmp_path / "metrics.json")
        main(["corpus", "--songs", "3", "--per-song", "5",
              "--out", corpus_dir])
        main(["ingest", "--corpus", corpus_dir, "--store-dir", store_dir])
        main(["hum", "--corpus", corpus_dir, "--melody", "2",
              "--out", hum_file])
        assert main(["query", "--store-dir", store_dir, "--hum", hum_file,
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
        assert main(["obs", "report", "--trace", trace_file]) == 0
        table = capsys.readouterr().out
        assert "per-shard (2 shards" in table
        assert "work" in table and "pruned" in table
        assert "scenario matrix:" not in table

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

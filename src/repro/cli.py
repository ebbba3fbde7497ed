"""Command-line interface for the query-by-humming system.

Subcommands mirror a real deployment's lifecycle::

    repro corpus  --songs 50 --out corpus/              # build a MIDI corpus
    repro ingest  --corpus corpus/ --store-dir store/   # build the warping index
    repro hum     --corpus corpus/ --melody 123 --out hum.npy
    repro query   --store-dir store/ --hum hum.npy -k 10
    repro demo                                          # end-to-end in memory

The index lives in a columnar store directory (:mod:`repro.store`);
``ingest`` initialises it or appends a generation to it.

Hum inputs to ``query`` may be ``.npy`` pitch-series files (MIDI pitch
per 10 ms frame, as the pitch tracker emits) or ``.mid`` files.

The telemetry loop closes through two more groups::

    repro obs report   --trace trace.jsonl          # trace analytics
    repro perf replay  --workload wl.jsonl --store-dir store/

And the serving layer::

    repro serve        --store-dir store/ --hum hum.npy --clients 8
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _cmd_corpus(args) -> int:
    from .music.corpus import generate_corpus, segment_corpus
    from .persistence import save_corpus

    songs = generate_corpus(args.songs, seed=args.seed)
    melodies = segment_corpus(songs, per_song=args.per_song, seed=args.seed)
    save_corpus(melodies, args.out)
    print(f"wrote {len(melodies)} melodies from {args.songs} songs to {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    """Init-or-append: stream a corpus into a columnar store.

    With no existing generation the store is initialised from the
    configuration flags; with one, the corpus is appended as an
    incremental generation inheriting the live segments (the offline
    twin of the background ingest worker).
    """
    from .ingest import StreamingIndexBuilder
    from .persistence import load_corpus
    from .store import CorpusStore, current_generation, prune_generations

    melodies = load_corpus(args.corpus)
    series = [m.to_time_series(8) for m in melodies]
    ids = [m.name or str(i) for i, m in enumerate(melodies)]
    if args.id_prefix:
        ids = [f"{args.id_prefix}{item}" for item in ids]
    base = None
    if current_generation(args.store_dir) is not None:
        base = CorpusStore.open(args.store_dir)
        builder = StreamingIndexBuilder.for_store(
            base, memory_budget_mb=args.memory_budget_mb
        )
    else:
        from .core.normal_form import NormalForm

        builder = StreamingIndexBuilder(
            args.store_dir,
            kind="melody",
            delta=args.delta,
            normal_form=NormalForm(length=args.normal_length),
            n_features=args.features,
            memory_budget_mb=args.memory_budget_mb,
        )
    store, report = builder.build(
        series, ids, base=base, activate=not args.no_activate
    )
    verb = "appended" if base is not None else "initialised"
    new_rows = report.rows - (base.rows if base is not None else 0)
    print(f"{verb} {new_rows} melodies -> {args.store_dir} "
          f"(generation {report.generation}, {report.rows} rows total, "
          f"{report.rows_per_s:.0f} rows/s, feature margin "
          f"{report.feature_margin:.3g})")
    if args.keep is not None:
        removed = prune_generations(args.store_dir, keep=args.keep)
        if removed:
            print(f"pruned generations: "
                  f"{', '.join(str(g) for g in removed)}")
    return 0


def _open_index(store_dir: str):
    """The live generation of the columnar store at *store_dir*."""
    from .index.gemini import WarpingIndex
    from .store import CorpusStore

    return WarpingIndex.from_store(CorpusStore.open(store_dir))


def _load_hum(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        return np.load(path)
    if path.endswith(".mid"):
        from .music.midi import MidiFile

        with open(path, "rb") as handle:
            melody = MidiFile.from_bytes(handle.read()).to_melody()
        return melody.to_time_series(8).astype(float)
    raise ValueError(f"unsupported hum input {path!r} (want .npy or .mid)")


def _print_hits(results) -> None:
    for rank, (name, dist) in enumerate(results, start=1):
        print(f"{rank:3d}. {name}  (DTW distance {dist:.3f})")


def _emit_stats_json(payload: dict, dest: str, info) -> None:
    """Write the machine-readable query record to *dest* (``-`` = stdout)."""
    import json

    text = json.dumps(payload, indent=2, sort_keys=True)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote stats to {dest}", file=info)


def _cmd_query(args) -> int:
    obs = None
    if (args.trace_out or args.metrics_out or args.workload_out
            or args.slow_query_ms is not None):
        from .obs import Observability

        def on_slow(record):
            print(f"slow query: {record['duration_ms']:.1f} ms "
                  f"({record['refined']} refined of "
                  f"{record['corpus_size']})", file=sys.stderr)

        obs = Observability.to_files(
            trace_out=args.trace_out,
            metrics_out=args.metrics_out,
            workload_out=args.workload_out,
            slow_query_ms=args.slow_query_ms,
            on_slow=on_slow if args.slow_query_ms is not None else None,
            trace_append=args.trace_append,
        )
    # With --stats-json, stdout is reserved for results (rows, or the
    # JSON document itself with ``-``); diagnostics move to stderr.
    stats_json = args.stats_json
    info = sys.stderr if stats_json is not None else sys.stdout
    router = None
    try:
        index = _open_index(args.store_dir)
        if obs is not None:
            index.set_observability(obs)
        if args.dtw_backend:
            index.dtw_backend = args.dtw_backend
        hums = [_load_hum(path) for path in args.hum]
        if args.shards is not None and args.shards > 1:
            # Multi-process serving: the corpus is partitioned across
            # worker processes and every query fans out; answers (and
            # merged cascade stats) are identical to the in-process
            # path, but the kernel work escapes the GIL.
            from .shard import ShardRouter

            router = ShardRouter.from_index(index, shards=args.shards)
        # The cascade engine is the instrumented path: stats flags need
        # its counters, and observability needs its span tree.  The
        # shard router only speaks cascade.
        want_cascade = (args.stats or stats_json is not None
                        or obs is not None or router is not None)

        def cascade_knn(hum):
            if router is not None:
                return router.knn(index.normal_form.apply(hum), args.k)
            return index.cascade_knn_query(hum, args.k)

        if len(hums) > 1:
            # Several hums: answer each through the filter cascade, one
            # after the other, and merge the stats with ``+``.
            answers = [cascade_knn(hum) for hum in hums]
            per_hum = [results for results, _ in answers]
            cascade = sum((stats for _, stats in answers[1:]),
                          answers[0][1])
            print(f"db={len(index)}  hums={len(hums)}", file=info)
            if stats_json != "-":
                for path, results in zip(args.hum, per_hum):
                    print(f"\n{path}:")
                    _print_hits(results)
            if args.stats:
                print("\nmerged filter cascade:", file=info)
                print(cascade.summary(), file=info)
            if stats_json is not None:
                payload = {
                    "db": len(index),
                    "k": args.k,
                    "hums": list(args.hum),
                    "results": {
                        path: [[name, dist] for name, dist in results]
                        for path, results in zip(args.hum, per_hum)
                    },
                    "cascade": cascade.to_dict(),
                }
                _emit_stats_json(payload, stats_json, info)
            return 0
        hum = hums[0]
        if want_cascade:
            results, cascade = cascade_knn(hum)
            if args.stats:
                print(f"db={len(index)}  filter cascade:", file=info)
                print(cascade.summary(), file=info)
            else:
                print(f"db={len(index)}  "
                      f"pruned={cascade.pruned_total}  "
                      f"refined={cascade.dtw_computations}", file=info)
        else:
            cascade = None
            results, stats = index.knn_query(hum, args.k)
            print(f"db={len(index)}  candidates={stats.candidates}  "
                  f"pages={stats.page_accesses}  "
                  f"refined={stats.dtw_computations}", file=info)
        if stats_json != "-":
            _print_hits(results)
        if stats_json is not None:
            payload = {
                "db": len(index),
                "k": args.k,
                "hums": list(args.hum),
                "results": [[name, dist] for name, dist in results],
                "cascade": cascade.to_dict(),
            }
            _emit_stats_json(payload, stats_json, info)
        return 0
    finally:
        if router is not None:
            router.close()
        if obs is not None:
            obs.close()
            if args.trace_out:
                print(f"wrote trace spans to {args.trace_out}", file=info)
            if args.metrics_out:
                print(f"wrote metrics snapshot to {args.metrics_out}",
                      file=info)
            if args.workload_out:
                print(f"wrote workload records to {args.workload_out}",
                      file=info)


def _cmd_serve(args) -> int:
    """Serve hums concurrently through the request-queueing service."""
    from .serve import AdmissionPolicy, QBHService, RetryPolicy
    from .serve.loadgen import RequestSpec, run_load, service_dispatch

    obs = None
    exporter = None
    if args.trace_out or args.metrics_out or args.metrics_jsonl:
        from .obs import Observability

        obs = Observability.to_files(
            trace_out=args.trace_out, metrics_out=args.metrics_out,
        )
        if args.metrics_jsonl:
            from .obs import PeriodicSnapshotExporter

            exporter = PeriodicSnapshotExporter(
                obs.metrics, jsonl_path=args.metrics_jsonl,
                interval_s=args.metrics_interval_s,
            ).start()
    try:
        index = _open_index(args.store_dir)
        if obs is not None:
            index.set_observability(obs)
        hums = [_load_hum(path) for path in args.hum]
        admission = AdmissionPolicy(
            max_queue_depth=args.max_queue_depth,
            default_deadline_s=(args.deadline_ms / 1e3
                                if args.deadline_ms is not None else None),
        )
        service = QBHService.from_index(
            index,
            shards=args.shards,
            admission=admission,
            retry=RetryPolicy(),
            cache_size=args.cache_size,
            cache_ttl_s=args.ttl_s,
            health_interval_s=args.health_interval_s,
            shadow_fraction=args.shadow_fraction,
        )
        # Each hum is requested --repeat times; interleaving the hums
        # round-robin gives the scheduler real concurrent variety.
        specs = [RequestSpec(kind="knn", param=args.k, query_index=i)
                 for _ in range(args.repeat) for i in range(len(hums))]
        try:
            report = run_load(service_dispatch(service), specs, hums,
                              clients=args.clients)
            report.saturation = service.saturation()
            # Answer rows: one (cached) authoritative lookup per hum.
            for path, hum in zip(args.hum, hums):
                outcome = service.knn(hum, args.k)
                print(f"\n{path}:")
                if outcome.ok:
                    _print_hits(outcome.results)
                else:
                    print(f"  <{outcome.status}>")
        finally:
            service.close()
        by_status = ", ".join(f"{status}={count}" for status, count
                              in sorted(report.by_status.items()))
        lat = report.latency_percentiles()
        print(f"\nserved {report.completed} requests "
              f"({by_status}) from {args.clients} clients "
              f"in {report.wall_s:.3f}s  ({report.qps:.1f} qps)")
        print(f"latency ms: p50={lat['p50'] * 1e3:.2f}  "
              f"p95={lat['p95'] * 1e3:.2f}  p99={lat['p99'] * 1e3:.2f}")
        if args.stats:
            saturation = report.saturation
            print("\nsaturation:")
            for key in ("submitted", "completed", "ok", "shed",
                        "deadline_exceeded", "error", "cache_hits",
                        "executed"):
                print(f"  {key:<18} {saturation[key]}")
            print(f"  {'shed_rate':<18} {saturation['shed_rate']:.1%}")
            print(f"  {'deadline_miss_rate':<18} "
                  f"{saturation['deadline_miss_rate']:.1%}")
            print(f"  {'cache_hit_rate':<18} "
                  f"{saturation['cache_hit_rate']:.1%}")
            shadow = saturation.get("shadow")
            if shadow is not None:
                agreement = (f"{shadow['agreement']:.1%}"
                             if shadow["agreement"] is not None else "-")
                print(f"  {'shadow':<18} checked={shadow['checked']} "
                      f"disagreed={shadow['disagreed']} "
                      f"agreement={agreement}")
            for row in saturation.get("shards", ()):
                state = "up" if row["alive"] else "DOWN"
                rtt = (f"{row['ping_rtt_s'] * 1e3:.2f}ms"
                       if row.get("ping_rtt_s") is not None else "-")
                rss = (f"{row['rss_bytes'] / 1e6:.1f}MB"
                       if row.get("rss_bytes") is not None else "-")
                print(f"  shard[{row['shard']}]          {state} "
                      f"epoch={row['epoch']} respawns={row['respawns']} "
                      f"requests={row['requests']} rtt={rtt} rss={rss}")
        return 0
    finally:
        if exporter is not None:
            exporter.close()
            print(f"wrote {exporter.samples} metrics snapshots to "
                  f"{args.metrics_jsonl}")
        if obs is not None:
            obs.close()
            if args.trace_out:
                print(f"wrote trace spans to {args.trace_out}")
            if args.metrics_out:
                print(f"wrote metrics snapshot to {args.metrics_out}")


def _cmd_obs_report(args) -> int:
    """Aggregate an exported span JSONL into the operator's report."""
    import json

    from .obs import TraceReadStats, analyze_traces, read_traces

    stats = TraceReadStats()
    report = analyze_traces(read_traces(args.trace, stats), stats)
    if not stats.spans:
        # An empty or all-garbage trace file gets a hard error, not a
        # bare all-zero table that reads like "everything was fast".
        print(f"error: no valid spans in {args.trace} "
              f"({stats.lines} line(s) read, {stats.bad_lines} bad)",
              file=sys.stderr)
        return 1
    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    elif args.format == "folded":
        text = report.format_folded()
    elif args.scenarios:
        text = report.format_scenario_matrix()
    else:
        text = report.format_table(per_shard=args.per_shard)
    if stats.bad_lines and args.format != "table":
        # The table embeds its own WARNING header; the machine formats
        # keep stdout clean, so the caveat goes to stderr instead.
        print(f"warning: skipped {stats.bad_lines} undecodable line(s) "
              f"of {stats.lines} read from {args.trace}",
              file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(text)
    if not stats.traces:
        print(f"error: no complete traces in {args.trace} "
              f"({stats.bad_lines} bad lines, "
              f"{stats.incomplete_traces} incomplete)", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_export(args) -> int:
    """Convert a metrics snapshot (JSON) into an external format."""
    import json

    from .obs import append_snapshot, prometheus_text

    with open(args.metrics) as handle:
        snapshot = json.load(handle)
    if not isinstance(snapshot, dict) or "counters" not in snapshot:
        print(f"error: {args.metrics} is not a metrics snapshot "
              f"(want the JSON written by --metrics-out)", file=sys.stderr)
        return 2
    if args.format == "jsonl":
        if not args.out:
            print("error: --format jsonl needs --out (the series file "
                  "to append to)", file=sys.stderr)
            return 2
        append_snapshot(args.out, snapshot)
        print(f"appended snapshot to {args.out}")
        return 0
    text = prometheus_text(snapshot)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote prometheus exposition to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_obs_top(args) -> int:
    """One-shot terminal view of a metrics snapshot or series."""
    import json

    from .obs import format_top, read_snapshot_series

    if args.series:
        snapshots, bad = read_snapshot_series(args.series)
        if bad:
            print(f"warning: skipped {bad} undecodable line(s) in "
                  f"{args.series}", file=sys.stderr)
        if not snapshots:
            print(f"error: no snapshots in {args.series}", file=sys.stderr)
            return 1
        snapshot = snapshots[-1]
        print(f"series {args.series}: {len(snapshots)} snapshot(s), "
              f"showing the newest")
    else:
        with open(args.metrics) as handle:
            snapshot = json.load(handle)
        if not isinstance(snapshot, dict) or "counters" not in snapshot:
            print(f"error: {args.metrics} is not a metrics snapshot",
                  file=sys.stderr)
            return 2
    sys.stdout.write(format_top(snapshot))
    return 0


def _cmd_quality(args) -> int:
    """Run the degradation scenario matrix and print/record it."""
    from pathlib import Path

    from .music.corpus import generate_corpus, segment_corpus
    from .obs import OBS_DISABLED
    from .qbh.quality import run_scenario_matrix
    from .qbh.system import QueryByHummingSystem

    for out in (args.trace_out, args.metrics_out, args.json_out):
        if out:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
    obs = None
    if args.trace_out or args.metrics_out:
        from .obs import Observability

        obs = Observability.to_files(
            trace_out=args.trace_out, metrics_out=args.metrics_out,
        )
    try:
        if args.corpus:
            from .persistence import load_corpus

            melodies = load_corpus(args.corpus)
        else:
            melodies = segment_corpus(
                generate_corpus(args.songs, seed=args.seed),
                per_song=args.per_song, seed=args.seed,
            )
        system = QueryByHummingSystem(melodies, delta=args.delta,
                                      normal_length=args.normal_length)
        matrix = run_scenario_matrix(
            system,
            scenarios=tuple(args.scenario) if args.scenario else None,
            severities=tuple(args.severity),
            queries_per_cell=args.queries,
            k=args.k,
            seed=args.seed,
            obs=obs if obs is not None else OBS_DISABLED,
        )
        print(matrix.format_table())
        if args.json_out:
            import json

            with open(args.json_out, "w") as handle:
                handle.write(json.dumps(matrix.to_dict(), indent=2,
                                        sort_keys=True) + "\n")
            print(f"wrote scenario matrix to {args.json_out}",
                  file=sys.stderr)
        return 0
    finally:
        if obs is not None:
            obs.close()
            if args.trace_out:
                print(f"wrote trace spans to {args.trace_out}",
                      file=sys.stderr)
            if args.metrics_out:
                print(f"wrote metrics snapshot to {args.metrics_out}",
                      file=sys.stderr)


def _cmd_perf_replay(args) -> int:
    """Re-execute a captured workload and verify answer parity."""
    from .perf import load_workload, replay_workload

    records = load_workload(args.workload)
    if not records:
        print(f"error: no replayable records in {args.workload}",
              file=sys.stderr)
        return 2
    index = _open_index(args.store_dir)
    report = replay_workload(
        lambda backend: index.engine(dtw_backend=backend),
        records,
        backends=tuple(args.backends),
        modes=tuple(args.modes),
        workers=args.workers,
        atol=args.atol,
    )
    print(f"replaying {len(records)} recorded queries from "
          f"{args.workload} against {args.store_dir} "
          f"(db={len(index)})", file=sys.stderr)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_hum(args) -> int:
    from .hum.singer import SingerProfile, hum_melody
    from .persistence import load_corpus

    melodies = load_corpus(args.corpus)
    if not 0 <= args.melody < len(melodies):
        print(f"error: melody index {args.melody} out of range "
              f"[0, {len(melodies)})", file=sys.stderr)
        return 2
    profile = (SingerProfile.poor() if args.profile == "poor"
               else SingerProfile.better())
    rng = np.random.default_rng(args.seed)
    hum = hum_melody(melodies[args.melody], profile, rng)
    np.save(args.out, hum)
    print(f"hummed {melodies[args.melody].name!r} as a {args.profile} singer "
          f"({hum.size} frames) -> {args.out}")
    return 0


def _cmd_assess(args) -> int:
    from .persistence import load_corpus
    from .qbh.scoring import assess_humming

    melodies = load_corpus(args.corpus)
    if not 0 <= args.melody < len(melodies):
        print(f"error: melody index {args.melody} out of range "
              f"[0, {len(melodies)})", file=sys.stderr)
        return 2
    melody = melodies[args.melody]
    hum = _load_hum(args.hum)
    report = assess_humming(hum, melody)
    print(f"assessing your humming of {melody.name!r}:")
    print(f"  grade: {report.grade()}")
    print(f"  mean |pitch error|: {report.mean_abs_pitch_error:.2f} semitones")
    print(f"  timing consistency: {report.timing_consistency:.2f}")
    worst = report.worst_note
    if worst is not None and abs(worst.pitch_error) > 0.5:
        direction = "sharp" if worst.pitch_error > 0 else "flat"
        print(f"  worst note: #{worst.index} "
              f"({melody.notes[worst.index].name}), "
              f"{abs(worst.pitch_error):.1f} semitones {direction}")
    return 0


def _cmd_analyze(args) -> int:
    from .music.analysis import analyze_corpus, find_duplicates
    from .persistence import load_corpus

    melodies = load_corpus(args.corpus)
    stats = analyze_corpus(melodies, estimate_keys=not args.no_keys)
    print(stats.summary())
    duplicates = find_duplicates(melodies)
    print(f"duplicate groups: {len(duplicates)}")
    return 0


def _cmd_export(args) -> int:
    from .music.notation import melody_to_abc
    from .persistence import load_corpus

    melodies = load_corpus(args.corpus)
    if not 0 <= args.melody < len(melodies):
        print(f"error: melody index {args.melody} out of range "
              f"[0, {len(melodies)})", file=sys.stderr)
        return 2
    melody = melodies[args.melody]
    abc = melody_to_abc(melody, title=melody.name)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(abc)
        print(f"wrote {melody.name!r} to {args.out}")
    else:
        print(abc, end="")
    return 0


def _cmd_tune(args) -> int:
    from .hum.singer import SingerProfile, hum_melody
    from .persistence import load_corpus
    from .tuning import tune_feature_count

    melodies = load_corpus(args.corpus)
    series = [m.to_time_series(8) for m in melodies]
    rng = np.random.default_rng(args.seed)
    targets = rng.choice(len(melodies), size=min(args.queries, len(melodies)),
                         replace=False)
    queries = [
        hum_melody(melodies[int(t)], SingerProfile.better(), rng)
        for t in targets
    ]
    report = tune_feature_count(
        series, queries, delta=args.delta,
        normal_length=args.normal_length,
        candidates_grid=tuple(args.grid),
    )
    print(report.summary())
    print(f"\nrecommended feature count: {report.recommended}")
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments

    scale = experiments.active_scale()
    small_db = min(scale.fig10_db, 5000)
    runners = {
        "table2": lambda: experiments.run_table2(scale),
        "table3": lambda: experiments.run_table3(scale),
        "fig6": lambda: experiments.run_fig6(scale),
        "fig7": lambda: experiments.run_fig7(scale),
        "fig8": lambda: experiments.run_fig8(scale),
        "fig9": lambda: experiments.run_fig9(scale),
        "fig10": lambda: experiments.run_fig10(scale),
        "scaling": lambda: experiments.run_size_scaling(scale),
        "signsplit": lambda: experiments.run_signsplit_ablation(
            max(200, scale.fig7_pairs)),
        "knn": lambda: experiments.run_knn_ablation(
            small_db, scale.fig8_queries),
        "backends": lambda: experiments.run_backend_ablation(
            small_db, scale.fig8_queries),
        "secondfilter": lambda: experiments.run_second_filter_ablation(
            small_db, scale.fig8_queries),
        "cascade": lambda: experiments.run_cascade_ablation(
            small_db, scale.fig8_queries),
        "splits": lambda: experiments.run_split_ablation(
            min(scale.fig10_db, 3000), scale.fig8_queries),
        "noise": lambda: experiments.run_noise_sweep(scale),
    }
    if args.which not in runners:
        print(f"error: unknown experiment {args.which!r}; choose from "
              f"{sorted(runners)}", file=sys.stderr)
        return 2
    print(f"running {args.which} at {scale.name} scale "
          f"(set REPRO_SCALE=full|smoke to change) ...")
    result = runners[args.which]()
    if args.which in ("table2", "table3"):
        from .qbh.evaluation import format_rank_tables

        tables = list(result) if isinstance(result, (list, tuple)) else [result]
        print(format_rank_tables(tables, title=args.which))
    else:
        rows = result[0] if isinstance(result, tuple) else result
        print(experiments.format_series(args.which, rows))
    return 0


def _cmd_report(args) -> int:
    from .experiments import active_scale, generate_report

    scale = active_scale()
    print(f"generating reproduction report at {scale.name} scale ...",
          file=sys.stderr)
    text = generate_report(
        scale, include=tuple(args.sections) if args.sections else None
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_demo(args) -> int:
    from .hum.singer import SingerProfile, hum_melody
    from .music.corpus import generate_corpus, segment_corpus
    from .qbh.system import QueryByHummingSystem

    melodies = segment_corpus(generate_corpus(args.songs, seed=args.seed),
                              per_song=20, seed=args.seed)
    system = QueryByHummingSystem(melodies, delta=0.1)
    rng = np.random.default_rng(args.seed)
    target = int(rng.integers(len(melodies)))
    hum = hum_melody(melodies[target], SingerProfile.better(), rng)
    results, stats = system.query(hum, k=5)
    print(f"database: {len(system)} melodies; hummed {melodies[target].name!r}")
    print(f"filter: {stats.candidates} candidates, "
          f"{stats.page_accesses} page accesses")
    for rank, (name, dist) in enumerate(results, start=1):
        marker = "  <-- target" if name == melodies[target].name else ""
        print(f"{rank}. {name} ({dist:.2f}){marker}")
    return 0


def _top_k(text: str) -> int:
    """argparse ``type`` of every ``-k``: an integer >= 1."""
    try:
        value = int(text)
        if value < 1:
            raise ValueError(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"k must be an integer >= 1, got {text!r}"
        ) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query by humming with warping indexes (SIGMOD 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_corpus = sub.add_parser("corpus", help="generate a MIDI melody corpus")
    p_corpus.add_argument("--songs", type=int, default=50)
    p_corpus.add_argument("--per-song", type=int, default=20)
    p_corpus.add_argument("--seed", type=int, default=1)
    p_corpus.add_argument("--out", required=True)
    p_corpus.set_defaults(func=_cmd_corpus)

    p_ingest = sub.add_parser(
        "ingest",
        help="build the warping index: stream a corpus into a columnar "
             "store (init or append a generation; the offline twin of "
             "the background ingest worker)",
    )
    p_ingest.add_argument("--corpus", required=True,
                          help="MIDI corpus directory (repro corpus)")
    p_ingest.add_argument("--store-dir", required=True, metavar="DIR")
    p_ingest.add_argument("--memory-budget-mb", type=float, default=64.0,
                          help="staging-buffer budget (default: 64)")
    p_ingest.add_argument("--delta", type=float, default=0.1,
                          help="warping width for a fresh store "
                               "(appends reuse the store's config)")
    p_ingest.add_argument("--features", type=int, default=8)
    p_ingest.add_argument("--normal-length", type=int, default=128)
    p_ingest.add_argument("--id-prefix", default="", metavar="P",
                          help="prefix melody ids with P (ids must be "
                               "unique across the whole store)")
    p_ingest.add_argument("--no-activate", action="store_true",
                          help="seal the generation but leave CURRENT "
                               "pointing at the previous one")
    p_ingest.add_argument("--keep", type=int, metavar="N",
                          help="after activating, prune to the newest N "
                               "generations (default: keep all)")
    p_ingest.set_defaults(func=_cmd_ingest)

    p_hum = sub.add_parser("hum", help="simulate humming a corpus melody")
    p_hum.add_argument("--corpus", required=True)
    p_hum.add_argument("--melody", type=int, required=True)
    p_hum.add_argument("--profile", choices=("better", "poor"),
                       default="better")
    p_hum.add_argument("--seed", type=int, default=0)
    p_hum.add_argument("--out", required=True)
    p_hum.set_defaults(func=_cmd_hum)

    p_query = sub.add_parser("query", help="query a stored index with a hum")
    p_query.add_argument("--store-dir", required=True, metavar="DIR",
                         help="open the live generation of the columnar "
                              "store at DIR (repro ingest)")
    p_query.add_argument("--hum", required=True, nargs="+",
                         help=".npy pitch series or .mid melody; several "
                              "hums are answered one after the other")
    p_query.add_argument("-k", type=_top_k, default=10)
    p_query.add_argument("--stats", action="store_true",
                         help="answer via the batched filter cascade and "
                              "print per-stage pruning counters")
    p_query.add_argument("--dtw-backend", choices=("vectorized", "scalar"),
                         help="DTW kernel for exact refinement "
                              "(default: vectorized)")
    p_query.add_argument("--shards", type=int,
                         help="answer through N worker processes instead "
                              "of in-process (default: unsharded)")
    p_query.add_argument("--stats-json", nargs="?", const="-", metavar="FILE",
                         help="emit results + cascade stats as one JSON "
                              "document to FILE (or stdout with no FILE; "
                              "diagnostics then go to stderr)")
    p_query.add_argument("--trace-out", metavar="FILE",
                         help="export tracing spans of every query as "
                              "JSONL (query -> stage -> refine -> kernel)")
    p_query.add_argument("--metrics-out", metavar="FILE",
                         help="write a metrics-registry snapshot (JSON) "
                              "after serving")
    p_query.add_argument("--slow-query-ms", type=float, metavar="N",
                         help="log queries slower than N ms to stderr; "
                              "with --trace-out, export only their traces "
                              "and workload records")
    p_query.add_argument("--trace-append", action="store_true",
                         help="append to an existing --trace-out file "
                              "instead of truncating it (accumulate a "
                              "slow-query corpus across runs)")
    p_query.add_argument("--workload-out", metavar="FILE",
                         help="capture each served query (raw input, "
                              "parameters, exact results) as replayable "
                              "JSONL for 'repro perf replay'")
    p_query.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="serve hums concurrently with request coalescing, "
             "deadlines, and a result cache",
    )
    p_serve.add_argument("--store-dir", required=True, metavar="DIR",
                         help="serve the live generation of the columnar "
                              "store at DIR (repro ingest)")
    p_serve.add_argument("--hum", required=True, nargs="+",
                         help=".npy pitch series or .mid melody; the "
                              "request mix cycles over all of them")
    p_serve.add_argument("-k", type=_top_k, default=10)
    p_serve.add_argument("--clients", type=int, default=8,
                         help="concurrent closed-loop clients (default: 8)")
    p_serve.add_argument("--repeat", type=int, default=4,
                         help="requests per hum (default: 4)")
    p_serve.add_argument("--deadline-ms", type=float,
                         help="per-request deadline; lapsed requests "
                              "return deadline_exceeded, never results")
    p_serve.add_argument("--max-queue-depth", type=int, default=64,
                         help="admission bound: arrivals past this are "
                              "shed with a retry hint (default: 64)")
    p_serve.add_argument("--cache-size", type=int, default=1024,
                         help="result-cache entries, 0 disables "
                              "(default: 1024)")
    p_serve.add_argument("--ttl-s", type=float,
                         help="result-cache time-to-live in seconds")
    p_serve.add_argument("--shards", type=int,
                         help="partition the index across N worker "
                              "processes (default: unsharded)")
    p_serve.add_argument("--stats", action="store_true",
                         help="print the saturation counters after the run")
    p_serve.add_argument("--trace-out", metavar="FILE",
                         help="export serve:request/serve:batch and engine "
                              "spans as JSONL (feeds 'repro obs report')")
    p_serve.add_argument("--metrics-out", metavar="FILE",
                         help="write a metrics-registry snapshot (JSON) "
                              "after serving")
    p_serve.add_argument("--health-interval-s", type=float, metavar="S",
                         help="with --shards, heartbeat the worker fleet "
                              "every S seconds (ping RTT, RSS, respawns "
                              "land in shard.health.* gauges and the "
                              "saturation report)")
    p_serve.add_argument("--metrics-jsonl", metavar="FILE",
                         help="sample the metrics registry into an "
                              "append-only snapshot series while serving "
                              "(feeds 'repro obs top --series')")
    p_serve.add_argument("--metrics-interval-s", type=float, default=1.0,
                         metavar="S",
                         help="sampling period for --metrics-jsonl "
                              "(default: 1.0)")
    p_serve.add_argument("--shadow-fraction", type=float, default=0.0,
                         metavar="F",
                         help="shadow-score this fraction of served "
                              "requests against an exact engine call "
                              "(quality.shadow.* metrics; default: off)")
    p_serve.set_defaults(func=_cmd_serve)

    p_quality = sub.add_parser(
        "quality",
        help="run the hum-degradation scenario matrix: recall@k, MRR, "
             "and latency per (scenario, severity) cell, with a "
             "contour-string baseline column",
    )
    p_quality.add_argument("--corpus", metavar="FILE",
                           help="melody corpus from `repro corpus` "
                                "(default: generate one in memory)")
    p_quality.add_argument("--songs", type=int, default=8,
                           help="songs for the generated corpus "
                                "(default: 8)")
    p_quality.add_argument("--per-song", type=int, default=4,
                           help="melody segments per song (default: 4)")
    p_quality.add_argument("--queries", type=int, default=3,
                           help="queries per (scenario, severity) cell "
                                "(default: 3)")
    p_quality.add_argument("--scenario", nargs="+", metavar="NAME",
                           help="restrict to these scenarios "
                                "(default: all; see repro.hum.degrade)")
    p_quality.add_argument("--severity", nargs="+", type=float,
                           default=[0.25, 0.5, 1.0], metavar="S",
                           help="severity levels in [0, 1] "
                                "(default: 0.25 0.5 1.0)")
    p_quality.add_argument("-k", type=_top_k, default=10,
                           help="top-k answers per query (default: 10)")
    p_quality.add_argument("--delta", type=float, default=0.1,
                           help="DTW warping-band width (default: 0.1)")
    p_quality.add_argument("--normal-length", type=int, default=128,
                           help="normal-form length (default: 128)")
    p_quality.add_argument("--seed", type=int, default=0)
    p_quality.add_argument("--trace-out", metavar="FILE",
                           help="also write quality:query spans as JSONL")
    p_quality.add_argument("--metrics-out", metavar="FILE",
                           help="also write a quality.* metrics snapshot")
    p_quality.add_argument("--json-out", metavar="FILE",
                           help="also write the matrix as JSON")
    p_quality.set_defaults(func=_cmd_quality)

    p_obs = sub.add_parser(
        "obs", help="analyze exported observability data"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_report = obs_sub.add_parser(
        "report",
        help="aggregate a span JSONL into latency percentiles, "
             "pruning power, and critical paths",
    )
    p_obs_report.add_argument("--trace", required=True, metavar="FILE",
                              help="span JSONL written by --trace-out")
    p_obs_report.add_argument("--format",
                              choices=("table", "json", "folded"),
                              default="table",
                              help="terminal table, JSON document, or "
                                   "folded stacks for flamegraph tools")
    p_obs_report.add_argument("--out", metavar="FILE",
                              help="write the report to FILE instead of "
                                   "stdout")
    p_obs_report.add_argument("--per-shard", action="store_true",
                              help="append the per-shard breakdown table "
                                   "(latency percentiles, work share, "
                                   "pruning power per worker process)")
    p_obs_report.add_argument("--scenarios", action="store_true",
                              help="render the quality scenario matrix "
                                   "(recall@k and latency per degradation "
                                   "scenario x severity, contour baseline "
                                   "column) from quality:query spans")
    p_obs_report.set_defaults(func=_cmd_obs_report)

    p_obs_export = obs_sub.add_parser(
        "export",
        help="convert a --metrics-out snapshot to Prometheus text "
             "exposition or append it to a JSONL time series",
    )
    p_obs_export.add_argument("--metrics", required=True, metavar="FILE",
                              help="metrics snapshot JSON written by "
                                   "--metrics-out")
    p_obs_export.add_argument("--format",
                              choices=("prometheus", "jsonl"),
                              default="prometheus",
                              help="prometheus text exposition (default) "
                                   "or one appended JSONL series line")
    p_obs_export.add_argument("--out", metavar="FILE",
                              help="output file (default: stdout; "
                                   "required for --format jsonl)")
    p_obs_export.set_defaults(func=_cmd_obs_export)

    p_obs_top = obs_sub.add_parser(
        "top",
        help="one-shot terminal view: headline counters plus the "
             "per-shard health table",
    )
    top_src = p_obs_top.add_mutually_exclusive_group(required=True)
    top_src.add_argument("--metrics", metavar="FILE",
                         help="metrics snapshot JSON written by "
                              "--metrics-out")
    top_src.add_argument("--series", metavar="FILE",
                         help="snapshot JSONL series (shows the newest "
                              "sample)")
    p_obs_top.set_defaults(func=_cmd_obs_top)

    p_perf = sub.add_parser(
        "perf", help="workload replay"
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    p_perf_replay = perf_sub.add_parser(
        "replay",
        help="re-execute a captured workload and verify answer parity",
    )
    p_perf_replay.add_argument("--workload", required=True, metavar="FILE",
                               help="workload JSONL from --workload-out")
    p_perf_replay.add_argument("--store-dir", required=True, metavar="DIR",
                               help="columnar store to replay against")
    p_perf_replay.add_argument("--backends", nargs="+",
                               choices=("vectorized", "scalar"),
                               default=["vectorized", "scalar"])
    p_perf_replay.add_argument("--modes", nargs="+",
                               choices=("serial", "concurrent"),
                               default=["serial", "concurrent"])
    p_perf_replay.add_argument("--workers", type=int,
                               help="threads of the 'concurrent' mode")
    p_perf_replay.add_argument("--atol", type=float, default=1e-9,
                               help="distance tolerance (default: 1e-9)")
    p_perf_replay.set_defaults(func=_cmd_perf_replay)

    p_assess = sub.add_parser("assess",
                              help="grade a hum against its intended melody")
    p_assess.add_argument("--corpus", required=True)
    p_assess.add_argument("--melody", type=int, required=True)
    p_assess.add_argument("--hum", required=True,
                          help=".npy pitch series or .mid melody")
    p_assess.set_defaults(func=_cmd_assess)

    p_analyze = sub.add_parser("analyze", help="corpus statistics report")
    p_analyze.add_argument("--corpus", required=True)
    p_analyze.add_argument("--no-keys", action="store_true",
                           help="skip key estimation (faster)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_export = sub.add_parser("export",
                              help="render a corpus melody as ABC notation")
    p_export.add_argument("--corpus", required=True)
    p_export.add_argument("--melody", type=int, required=True)
    p_export.add_argument("--out", help="write to a file instead of stdout")
    p_export.set_defaults(func=_cmd_export)

    p_tune = sub.add_parser("tune",
                            help="recommend a feature dimensionality")
    p_tune.add_argument("--corpus", required=True)
    p_tune.add_argument("--delta", type=float, default=0.1)
    p_tune.add_argument("--normal-length", type=int, default=128)
    p_tune.add_argument("--queries", type=int, default=5)
    p_tune.add_argument("--grid", type=int, nargs="+", default=[4, 8, 16, 32])
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.set_defaults(func=_cmd_tune)

    p_exp = sub.add_parser("experiment",
                           help="regenerate one of the paper's tables/figures")
    p_exp.add_argument(
        "which",
        help="table2|table3|fig6|fig7|fig8|fig9|fig10|scaling|"
             "signsplit|knn|backends|secondfilter|splits|noise",
    )
    p_exp.set_defaults(func=_cmd_experiment)

    p_report = sub.add_parser(
        "report",
        help="run every experiment and write one markdown report",
    )
    p_report.add_argument("--out", help="output file (default: stdout)")
    p_report.add_argument("--sections", nargs="+",
                          help="subset of experiment sections to run")
    p_report.set_defaults(func=_cmd_report)

    p_demo = sub.add_parser("demo", help="end-to-end demo in memory")
    p_demo.add_argument("--songs", type=int, default=20)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Per-layer metrics: the loaded pass's returned objects + a traced replay.

Layers are the modules under ``src/repro``.  Spans are recorded here,
in the benchmark's own code, around calls into each layer's public
functions; nothing inside the program is instrumented.  A layer a
workload's requests never cross reports 0 for its metrics.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro.core.envelope import k_envelope
from repro.dtw.distance import ldtw_distance_batch
from repro.dtw.kernels import KernelStats
from repro.engine import DEFAULT_STAGES
from repro.obs import Observability
from repro.serve import request_fingerprint

from . import host
from .run import (STOP_AFTER, IngestLog, RunContext, Stack, open_stack,
                  percentile_ms, timed_pass, unanswered)

#: Layers may sum to this much more than the served wall before the
#: run fails: beyond it the measurement, not the program, is wrong.
RECONCILE_SLACK = 0.10
SMALL_BATCH_ROWS = 4
HIT_PROBES = 32


class SpanLog:
    """In-memory spans: name, start, end, parent; one trace id per
    request.  Written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    def add(self, name: str, trace_id: str, parent: int | None,
            start_s: float, end_s: float, **attrs) -> dict:
        span = {"trace_id": trace_id, "span_id": next(self._ids),
                "parent_id": parent, "name": name,
                "start_s": start_s, "end_s": end_s, **attrs}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, trace_id: str, parent: dict | None = None,
             **attrs):
        span = self.add(name, trace_id,
                        None if parent is None else parent["span_id"],
                        time.perf_counter(), 0.0, **attrs)
        try:
            yield span
        finally:
            span["end_s"] = time.perf_counter()

    def durations_ms(self, name: str) -> list[float]:
        return [(s["end_s"] - s["start_s"]) * 1e3 for s in self.spans
                if s["name"] == name]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times_ms(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    own = {s["span_id"]: (s["end_s"] - s["start_s"]) * 1e3 for s in spans}
    for span in spans:
        if span["parent_id"] is not None:
            own[span["parent_id"]] -= (span["end_s"] - span["start_s"]) * 1e3
    return own


def _median(values, default: float = 0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# the loaded pass: what the served objects say
# ----------------------------------------------------------------------

def _serve_metrics(stack: Stack, records, warmups: int) -> dict:
    """serve.* from ``ServeOutcome`` fields and ``saturation()``."""
    if stack.service is None:
        return dict.fromkeys((
            "serve.queue_wait_ms", "serve.service_time_ms",
            "serve.batch_size_mean", "serve.cache_hit_share",
            "serve.coalesced_share", "serve.miss_latency_p50_ms"), 0.0)
    outcomes = [r.payload for r in records]
    executed = [o for o in outcomes if not o.from_cache]
    misses = [r.latency_s for r in records if not r.payload.from_cache]
    counters = stack.service.saturation()
    submitted = counters["submitted"] - warmups
    hits = counters["cache_hits"]
    ran = counters["executed"] - warmups
    return {
        "serve.queue_wait_ms": _median(o.queue_wait_s for o in executed) * 1e3,
        "serve.service_time_ms":
            _median(o.service_time_s for o in executed) * 1e3,
        "serve.batch_size_mean":
            float(np.mean([o.batch_size for o in executed]))
            if executed else 0.0,
        "serve.cache_hit_share": _share(hits, submitted),
        "serve.coalesced_share": _share(submitted - hits - ran, submitted),
        "serve.miss_latency_p50_ms":
            percentile_ms(misses, 50) if misses else 0.0,
    }


def _hit_latency_us(stack: Stack, ctx: RunContext, records) -> float:
    """One client re-sends answered requests; the repeat is a cache hit."""
    if stack.service is None:
        return 0.0
    latencies = []
    for record in records[:HIT_PROBES]:
        spec = ctx.requests.specs[record.position]
        hum = ctx.requests.hums[spec.query_index]
        stack.answer(spec.kind, spec.param, hum)   # cached now, if not yet
        begun = time.perf_counter()
        outcome = stack.answer(spec.kind, spec.param, hum)
        if outcome.from_cache:
            latencies.append(time.perf_counter() - begun)
    return _median(latencies) * 1e6


# ----------------------------------------------------------------------
# the traced pass: the same requests, layer by layer
# ----------------------------------------------------------------------

def _trace_sample(ctx: RunContext) -> list[int]:
    """A fixed, seeded subsample of the request list (it must not
    depend on how far the timed pass got, or counts would not repeat)."""
    specs = ctx.requests.specs
    kinds = {spec.kind for spec in specs}
    key = "mixed" if len(kinds) > 1 else kinds.pop()
    size = min(ctx.fixture.scale.trace_sample[key], len(specs))
    rng = np.random.default_rng([ctx.seed, 7])
    return sorted(int(p) for p in
                  rng.choice(len(specs), size=size, replace=False))


def _engine_children(log: SpanLog, parent: dict, stats) -> None:
    """Child spans of ``engine.query`` laid out from the stage and
    refine times its ``CascadeStats`` reports (k-NN interleaves the
    two, so only the durations are faithful, not the offsets)."""
    cursor = parent["start_s"]
    for stage in stats.stages:
        log.add(f"engine.stage.{stage.name}", parent["trace_id"],
                parent["span_id"], cursor, cursor + stage.wall_time_s,
                candidates_in=stage.candidates_in, pruned=stage.pruned,
                from_stats=True)
        cursor += stage.wall_time_s
    log.add("engine.refine", parent["trace_id"], parent["span_id"], cursor,
            cursor + stats.exact_time_s, rows=stats.dtw_computations,
            abandoned=stats.dtw_abandoned, from_stats=True)


def traced_pass(stack: Stack, ctx: RunContext, positions: list[int],
                log: SpanLog) -> dict:
    """Replay *positions* once, single-threaded, a span per layer call.

    Returns the exact counts and probe figures the spans do not carry.
    """
    index, fixture = stack.index, ctx.fixture
    engine = index.engine()
    router = (stack.service.shard_manager.router()
              if ctx.workload.shards else None)
    probe_rows = np.asarray(
        index.store.normalized[:fixture.scale.dtw_probe_rows],
        dtype=np.float64)
    cascade, tree, cells, probe_s = [], [], [], []
    # The service answered its warm-up on its own thread; the direct
    # calls below run on this one, whose first large temporaries would
    # otherwise be timed as page faults.
    kind, param, hum = ctx.requests.warmup[0]
    (engine.range_search if kind == "range" else engine.knn)(
        index.normal_form.apply(hum), param)
    for position in positions:
        spec = ctx.requests.specs[position]
        hum = ctx.requests.hums[spec.query_index]
        tid = f"{ctx.workload.name}-{position}"
        with log.span("request", tid, kind=spec.kind) as root:
            if stack.service is not None:
                with log.span("serve.request", tid, root) as span:
                    outcome = stack.answer(spec.kind, spec.param, hum)
                    span["from_cache"] = outcome.from_cache
                    span["status"] = outcome.status
            with log.span("serve.fingerprint", tid, root):
                request_fingerprint(hum, spec.kind, spec.param)
            with log.span("core.normalize", tid, root):
                query = index.normal_form.apply(hum)
            with log.span("core.envelope", tid, root):
                envelope = k_envelope(query, index.band)
            with log.span("core.reduce", tid, root):
                index.env_transform.reduce(envelope)
            with log.span("engine.query", tid, root) as span:
                search = (engine.range_search if spec.kind == "range"
                          else engine.knn)
                _, stats = search(query, spec.param)
            _engine_children(log, span, stats)
            cascade.append(stats)
            with log.span("dtw.probe", tid, root, rows=len(probe_rows)):
                counters = KernelStats()
                begun = time.perf_counter()
                ldtw_distance_batch(query, probe_rows, index.band,
                                    kernel_stats=counters)
                probe_s.append(time.perf_counter() - begun)
                cells.append(counters.cells)
            with log.span("dtw.probe_small", tid, root,
                          rows=SMALL_BATCH_ROWS):
                ldtw_distance_batch(query, probe_rows[:SMALL_BATCH_ROWS],
                                    index.band)
            if spec.kind == "range":
                with log.span("index.tree_query", tid, root):
                    _, query_stats = index.range_query(hum, spec.param)
                tree.append(query_stats)
            if router is not None:
                with log.span("shard.fanout", tid, root):
                    router.knn(query, spec.param)
    return {"cascade": cascade, "tree": tree, "cells": cells,
            "probe_s": probe_s}


def _traced_metrics(log: SpanLog, counts: dict, sharded: bool
                    ) -> tuple[dict, str | None]:
    """The replay's metrics, and how the layers over-ran the served wall
    (``None`` when they reconcile)."""
    def med(name: str) -> float:
        return _median(log.durations_ms(name))

    metrics = {
        "core.normalize_us": med("core.normalize") * 1e3,
        "core.envelope_us": med("core.envelope") * 1e3,
        "core.reduce_us": med("core.reduce") * 1e3,
        "serve.fingerprint_us": med("serve.fingerprint") * 1e3,
        "engine.query_ms": med("engine.query"),
        "engine.refine_ms": med("engine.refine"),
        "dtw.small_batch_ms": med("dtw.probe_small"),
        "dtw.cells_per_s": _share(sum(counts["cells"]),
                                  sum(counts["probe_s"])),
        "dtw.cells_per_query": float(np.mean(counts["cells"])),
        "index.tree_query_ms": med("index.tree_query"),
        "shard.fanout_ms": med("shard.fanout"),
    }
    own = self_times_ms(log.spans)
    metrics["engine.other_ms"] = _median(
        own[s["span_id"]] for s in log.spans if s["name"] == "engine.query")

    cascade = counts["cascade"]
    corpus = sum(s.corpus_size for s in cascade)
    refined = sum(s.dtw_computations for s in cascade)
    for name in DEFAULT_STAGES:
        stages = [st for s in cascade for st in s.stages if st.name == name]
        metrics[f"engine.stage.{name}.ms"] = med(f"engine.stage.{name}")
        metrics[f"engine.stage.{name}.pruned_share"] = _share(
            sum(st.pruned for st in stages),
            sum(st.candidates_in for st in stages))
    metrics["engine.refined_rows"] = refined / len(cascade)
    metrics["engine.abandoned_share"] = _share(
        sum(s.dtw_abandoned for s in cascade), refined)
    metrics["engine.pruned_share"] = _share(
        sum(s.pruned_total for s in cascade), corpus)

    tree = counts["tree"]
    candidates = sum(t.candidates for t in tree)
    metrics["index.page_accesses"] = (
        float(np.mean([t.page_accesses for t in tree])) if tree else 0.0)
    metrics["index.candidates"] = candidates / len(tree) if tree else 0.0
    metrics["index.dtw_computations"] = (
        float(np.mean([t.dtw_computations for t in tree])) if tree else 0.0)
    metrics["index.second_filter_pruned_share"] = _share(
        sum(t.extra.get("second_filter_pruned", 0) for t in tree),
        candidates)

    # Reconcile, request by request (requests differ tenfold in cost, so
    # the medians of two separately sorted lists can belong to different
    # requests): what the service added on top of the work it ran.
    executor = "shard.fanout" if sharded else "engine.query"
    by_trace: dict = {}
    for span in log.spans:
        by_trace.setdefault(span["trace_id"], {})[span["name"]] = span
    overhead, attributed = [], []
    for spans in by_trace.values():
        request = spans.get("serve.request")
        if request is None or request["from_cache"]:
            continue
        wall = (request["end_s"] - request["start_s"]) * 1e3
        work = sum((spans[n]["end_s"] - spans[n]["start_s"]) * 1e3
                   for n in ("core.normalize", executor))
        overhead.append(wall - work)
        attributed.append(work / wall)
    overrun = None
    metrics["serve.overhead_ms"] = _median(overhead)
    metrics["trace.unattributed_share"] = 0.0
    if attributed:
        share = _median(attributed)
        metrics["trace.unattributed_share"] = 1.0 - share
        if share > 1 + RECONCILE_SLACK:
            overrun = (f"reconciliation: the layers sum to {share:.0%} of "
                       f"the served wall on the median request, over it "
                       f"by more than {RECONCILE_SLACK:.0%}")
    metrics["shard.speedup_vs_engine"] = (
        _share(metrics["engine.query_ms"], metrics["shard.fanout_ms"]))
    return metrics, overrun


def _tracing_overhead(ctx: RunContext, positions: list[int]) -> float:
    """The workload's route with an enabled ``Observability`` on the
    index against the same route with telemetry off.

    Two fresh stacks answer the same requests in turn, swapping which
    goes first on every request, so warm caches favour neither.
    """
    warmup = ctx.requests.warmup[:2]
    plain = open_stack(ctx.workload, ctx.fixture, warmup)
    try:
        observed = open_stack(
            ctx.workload, ctx.fixture, warmup,
            obs=Observability(trace_sink=lambda spans: None))
        try:
            seconds = {id(plain): [], id(observed): []}
            for turn, position in enumerate(positions):
                spec = ctx.requests.specs[position]
                hum = ctx.requests.hums[spec.query_index]
                order = (plain, observed) if turn % 2 else (observed, plain)
                for stack in order:
                    begun = time.perf_counter()
                    payload = stack.answer(spec.kind, spec.param, hum)
                    elapsed = time.perf_counter() - begun
                    if not getattr(payload, "from_cache", False):
                        seconds[id(stack)].append(elapsed)
        finally:
            observed.close()
    finally:
        plain.close()
    off, on = _median(seconds[id(plain)]), _median(seconds[id(observed)])
    return (on - off) / off if off else 0.0


def _store_metrics(stack: Stack) -> dict:
    begun = time.perf_counter()
    stack.store.verify()
    verify_s = time.perf_counter() - begun
    directory = stack.store.directory
    size = sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory))
    return {
        "store.open_ms": stack.open_s * 1e3,
        "store.verify_ms": verify_s * 1e3,
        "store.bytes_per_row": size / stack.store.rows,
    }


# ----------------------------------------------------------------------
# one traced run
# ----------------------------------------------------------------------

def _ingest_metrics(log: IngestLog | None, fixture) -> dict:
    """ingest.* from what the live writer saw (0 where there was no
    writer) plus the set-up bulk build."""
    log = log or IngestLog()
    return {
        "ingest_rows_per_s": _share(log.rows, log.wall_s),
        "ingest_visible_p50_ms": _median(log.visible_s) * 1e3,
        "ingest.swap_ms": _median(log.rebuild_s.values()) * 1e3,
        "ingest.swaps": float(len(log.visible_s)),
        "ingest.build_rows_per_s": fixture.build_rows_per_s,
    }


def measure_layers(ctx: RunContext, trace_path: str) -> dict:
    """The ``--trace 1`` run: traced replay, then a loaded pass.

    The replay goes first because live ingest appends rows to the run's
    store, and the exact counts must be taken on the base generation to
    repeat.  The loaded pass is the untraced run's pass over the first
    half of the list (no spans are recorded in it): ``serve.*`` under
    two clients and ``ingest.*`` come from the objects it returns.
    """
    fixture, requests, workload = ctx.fixture, ctx.requests, ctx.workload
    loaded = max(1, len(requests.specs) // 2)
    stop_after_s = ctx.seconds * STOP_AFTER
    calibrations = [host.calibration_ms()]

    log = SpanLog()
    positions = _trace_sample(ctx)
    stack = open_stack(workload, fixture, requests.warmup[:2])
    try:
        counts = traced_pass(stack, ctx, positions, log)
    finally:
        stack.close()
    metrics, overrun = _traced_metrics(log, counts, bool(workload.shards))
    failures = []
    metrics["obs.tracing_overhead_share"] = _tracing_overhead(ctx, positions)
    calibrations.append(host.calibration_ms())

    metrics["ingest.read_p90_inflation"] = 0.0
    if workload.live_ingest:
        # The same requests with no writer (what range_tight serves):
        # ingest's read-side cost is the ratio of the two p90s.
        quiet = open_stack(workload, fixture, requests.warmup)
        try:
            quiet_records, _, _ = timed_pass(
                quiet, fixture, requests, loaded, ctx.clients, stop_after_s,
                live_ingest=False)
        finally:
            quiet.close()

    stack = open_stack(workload, fixture, requests.warmup)
    try:
        metrics.update(_store_metrics(stack))
        metrics["index.from_store_ms"] = stack.from_store_s * 1e3
        metrics["shard.spawn_s"] = stack.service_s if workload.shards else 0.0
        if workload.live_ingest:
            stack.attach_ingest()
        records, _, ingest_log = timed_pass(
            stack, fixture, requests, loaded, ctx.clients, stop_after_s,
            live_ingest=workload.live_ingest)
        calibrations.append(host.calibration_ms())
        failures += unanswered(records, loaded)
        metrics.update(_serve_metrics(stack, records, len(requests.warmup)))
        if workload.live_ingest:
            metrics["ingest.read_p90_inflation"] = (
                percentile_ms([r.latency_s for r in records], 90)
                / percentile_ms([r.latency_s for r in quiet_records], 90))
        metrics.update(_ingest_metrics(ingest_log, fixture))
        metrics["serve.hit_latency_us"] = _hit_latency_us(stack, ctx, records)
        metrics["shard.children_rss_mb"] = stack.shard_rss_bytes() / 2**20
    finally:
        stack.close()
    metrics["host.calibration_ms"] = _median(calibrations)
    noisy = host.is_noisy(calibrations)
    if overrun is not None and not noisy:
        # The two sides of the check are timed on two threads some
        # hundred milliseconds apart: on a host whose speed moved by
        # over 10 % during the run, 10 % between them proves nothing
        # (the overrun is still printed with the result).
        failures.append(overrun)
    log.write(trace_path)
    return {
        "metrics": metrics,
        "attempted": loaded + len(positions),
        "failures": failures,
        "detail": {
            "loaded_requests": loaded,
            "traced_requests": len(positions),
            "requests_digest": requests.digest(),
            "clients": ctx.clients,
            "calibration_ms": calibrations,
            "noisy": noisy,
            "overrun": overrun,
            "spans": len(log.spans),
            "trace_path": os.path.relpath(trace_path),
        },
    }

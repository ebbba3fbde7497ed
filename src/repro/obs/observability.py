"""The :class:`Observability` facade — what instrumented code holds.

One object bundles the three concerns of the obs layer:

* a tracer (:mod:`repro.obs.tracing`) producing nested spans,
* a :class:`~repro.obs.metrics.MetricsRegistry` of counters / gauges /
  histograms, and
* a slow-query log: per-query records (and, when tracing, full trace
  capture) gated by a latency threshold.

Instrumented code never branches on "is observability on?" — it calls
the facade unconditionally (``with obs.span(...)``,
``obs.record_cascade_query(...)``) and the *disabled* facade
(:data:`OBS_DISABLED`, the default everywhere) turns every call into
an immediate return.  That keeps hot paths free of dead branches and
makes the disabled cost a couple of attribute lookups per query.

Construction::

    obs = Observability()                          # in-memory only
    obs = Observability.to_files(
        trace_out="trace.jsonl",                   # span export
        metrics_out="metrics.json",                # snapshot on close()
        slow_query_ms=50,                          # gate trace capture
    )

The CLI flags ``--trace-out`` / ``--metrics-out`` / ``--slow-query-ms``
build exactly the second form.
"""

from __future__ import annotations

from collections import deque

from .clock import wall_s
from .metrics import MetricsRegistry
from .tracing import (
    NOOP_TRACER,
    InMemorySink,
    JsonlSpanExporter,
    Tracer,
    slow_trace_filter,
)

__all__ = ["Observability", "OBS_DISABLED"]

#: Histogram edges for per-query pruning ratios (fraction in [0, 1]).
_RATIO_EDGES = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0)

#: How many slow-query records the in-memory ring keeps.
_SLOW_LOG_CAPACITY = 1024


class Observability:
    """Tracer + metrics registry + slow-query log, as one handle.

    Parameters
    ----------
    tracer:
        A :class:`~repro.obs.tracing.Tracer` (or the no-op tracer).
        ``None`` builds a tracer over *trace_sink* when one is given,
        else the no-op tracer.
    trace_sink:
        Where finished traces go (a callable taking a span list).
    metrics:
        An existing registry to record into (``None`` creates one).
    slow_query_s:
        Latency threshold in seconds: queries at least this slow are
        appended to :attr:`slow_queries` (and reported to *on_slow*),
        and trace capture — when *gate_traces* — is restricted to them.
    on_slow:
        Optional callback invoked with each slow-query record dict.
    gate_traces:
        With a *slow_query_s* threshold, export only slow traces
        instead of every trace.
    """

    enabled = True

    def __init__(
        self,
        *,
        tracer: Tracer | None = None,
        trace_sink=None,
        metrics: MetricsRegistry | None = None,
        slow_query_s: float | None = None,
        on_slow=None,
        gate_traces: bool = False,
    ) -> None:
        if tracer is None:
            if trace_sink is not None:
                if gate_traces and slow_query_s is not None:
                    trace_sink = slow_trace_filter(slow_query_s, trace_sink)
                tracer = Tracer(sink=trace_sink)
            else:
                tracer = NOOP_TRACER
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slow_query_s = slow_query_s
        self.on_slow = on_slow
        self.slow_queries: deque = deque(maxlen=_SLOW_LOG_CAPACITY)
        self._closers: list = []

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def to_files(
        cls,
        *,
        trace_out=None,
        metrics_out=None,
        slow_query_ms: float | None = None,
        on_slow=None,
        trace_append: bool = False,
    ) -> "Observability":
        """File-backed observability, the CLI's configuration.

        *trace_out* receives every finished trace as JSONL spans (only
        slow ones when *slow_query_ms* is also given); *trace_append*
        extends an existing span log instead of truncating it.
        *metrics_out* receives one registry snapshot when
        :meth:`close` runs.  Missing parent directories of both are
        created (:func:`~repro.obs.tracing.open_output`).
        """
        sink = None
        closers = []
        if trace_out is not None:
            exporter = JsonlSpanExporter(trace_out, append=trace_append)
            closers.append(exporter.close)
            sink = exporter
        obs = cls(
            trace_sink=sink,
            slow_query_s=None if slow_query_ms is None else slow_query_ms / 1e3,
            on_slow=on_slow,
            gate_traces=slow_query_ms is not None,
        )
        obs._metrics_out = metrics_out
        obs._closers = closers
        return obs

    @classmethod
    def in_memory(cls, **kwargs) -> tuple["Observability", InMemorySink]:
        """Observability capturing traces in memory (tests, benchmarks)."""
        sink = InMemorySink()
        return cls(trace_sink=sink, **kwargs), sink

    def close(self) -> None:
        """Flush exporters; write the metrics snapshot if configured."""
        metrics_out = getattr(self, "_metrics_out", None)
        if metrics_out is not None:
            self.metrics.write_json(metrics_out)
        for closer in self._closers:
            closer()

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs):
        """Open a span on the facade's tracer (no-op when disabled)."""
        return self.tracer.span(name, **attrs)

    # ------------------------------------------------------------------
    # recording hooks (called unconditionally by instrumented code)
    # ------------------------------------------------------------------

    def record_cascade_query(self, kind: str, stats,
                             kernel_stats=None) -> None:
        """Fold one finished engine query into metrics + slow-query log.

        *stats* is the query's :class:`~repro.engine.CascadeStats`;
        *kernel_stats* the per-query
        :class:`~repro.dtw.kernels.KernelStats`, when the caller
        collected one.  Metric names recorded here are the contract
        documented in ``docs/ARCHITECTURE.md`` ("Observability").
        """
        m = self.metrics
        m.counter("engine.queries_total", kind=kind).inc()
        m.histogram("engine.query_seconds", kind=kind).observe(
            stats.total_time_s
        )
        m.counter("engine.candidates_total").inc(stats.corpus_size)
        m.counter("engine.candidates_refined_total").inc(
            stats.dtw_computations
        )
        m.counter("engine.dtw_abandoned_total").inc(stats.dtw_abandoned)
        m.counter("engine.exact_skipped_total").inc(stats.exact_skipped)
        m.counter("engine.results_total").inc(stats.results)
        if stats.corpus_size:
            m.histogram("engine.pruning_ratio", edges=_RATIO_EDGES).observe(
                stats.pruned_total / stats.corpus_size
            )
        for stage in stats.stages:
            m.counter("engine.stage.candidates_in_total",
                      stage=stage.name).inc(stage.candidates_in)
            m.counter("engine.stage.pruned_total",
                      stage=stage.name).inc(stage.pruned)
            m.counter("engine.stage.seconds_total",
                      stage=stage.name).inc(stage.wall_time_s)
        if kernel_stats is not None:
            self.record_kernel(kernel_stats)
        self._check_slow(kind, stats)

    def record_kernel(self, kernel_stats) -> None:
        """Fold one :class:`~repro.dtw.kernels.KernelStats` into metrics."""
        m = self.metrics
        m.counter("dtw.kernel_calls_total").inc(kernel_stats.calls)
        m.counter("dtw.cells_total").inc(kernel_stats.cells)
        m.counter("dtw.columns_compacted_total").inc(
            kernel_stats.compacted_columns
        )

    def record_index_query(self, kind: str, stats,
                           duration_s: float) -> None:
        """Fold one index-path query (:class:`QueryStats`) into metrics."""
        m = self.metrics
        m.counter("index.queries_total", kind=kind).inc()
        m.histogram("index.query_seconds", kind=kind).observe(duration_s)
        m.counter("index.candidates_total").inc(stats.candidates)
        m.counter("index.page_accesses_total").inc(stats.page_accesses)
        m.counter("index.dtw_computations_total").inc(stats.dtw_computations)
        m.counter("index.results_total").inc(stats.results)

    def record_serve_request(self, kind: str, status: str,
                             queue_wait_s: float, service_time_s: float,
                             *, from_cache: bool = False) -> None:
        """Fold one finished serving-layer request into metrics + spans.

        *kind* is ``"range"`` or ``"knn"``; *status* one of the
        :class:`~repro.serve.scheduler.ServeOutcome` statuses (``ok``,
        ``shed``, ``deadline_exceeded``, ``error``, ``shutdown``).
        Emits an *instant* root span ``serve:request`` whose attributes
        carry the real timings — deliberately not a span *around* the
        engine call, which would re-parent the engine's ``query`` root
        spans and break every trace consumer that counts roots.
        """
        m = self.metrics
        m.counter("serve.requests_total", kind=kind, status=status).inc()
        m.histogram("serve.queue_wait_seconds", kind=kind).observe(
            queue_wait_s
        )
        m.histogram("serve.request_seconds", kind=kind).observe(
            service_time_s
        )
        if from_cache:
            m.counter("serve.cache_hits_total", kind=kind).inc()
        if status == "deadline_exceeded":
            m.counter("serve.deadline_miss_total", kind=kind).inc()
        elif status == "shed":
            m.counter("serve.shed_total", kind=kind).inc()
        with self.span(
            "serve:request", kind=kind, status=status,
            queue_wait_s=queue_wait_s, service_time_s=service_time_s,
            from_cache=bool(from_cache),
        ):
            pass

    def record_serve_batch(self, kind: str, size: int,
                           service_time_s: float, queue_depth: int) -> None:
        """Fold one scheduler execution into metrics + spans.

        *size* counts the requests the execution answered: the head
        plus ``size - 1`` coalesced duplicates.  Emits an instant root
        span ``serve:batch`` (see :meth:`record_serve_request` for why
        not a wrapping span).
        """
        m = self.metrics
        m.counter("serve.batches_total", kind=kind).inc()
        m.counter("serve.batched_requests_total", kind=kind).inc(size)
        m.counter("serve.coalesced_total", kind=kind).inc(size - 1)
        m.histogram("serve.batch_seconds", kind=kind).observe(service_time_s)
        m.gauge("serve.queue_depth").set(queue_depth)
        with self.span(
            "serve:batch", kind=kind, size=int(size),
            service_time_s=service_time_s, queue_depth=int(queue_depth),
        ):
            pass

    def record_serve_cache(self, event: str) -> None:
        """Count one result-cache probe: ``hit`` / ``miss`` / ``stale``."""
        self.metrics.counter("serve.cache_probes_total", event=event).inc()

    def record_shard_fanout(self, kind: str, shards: int, wall_s: float,
                            per_shard_cpu_s) -> dict:
        """Fold one shard-router fan-out into metrics.

        *per_shard_cpu_s* is each worker's summed per-query time for
        the request, in shard order — it also feeds the per-shard
        ``shard.cpu_seconds_total{shard=i}`` counters, so skew is
        visible as a rate, not just an instantaneous gauge.  Two
        derived health numbers land in metrics and in the returned
        dict (the router sets them on its real ``shard:fanout`` span):
        **occupancy** — total worker time over ``shards × wall``, the
        fraction of the pool that was actually busy (low = fan-out
        overhead or skew dominates) — and **imbalance** — busiest
        worker over the mean, 1.0 when the partition splits work
        evenly.
        """
        m = self.metrics
        m.counter("shard.fanouts_total", kind=kind).inc()
        m.gauge("shard.count").set(shards)
        m.histogram("shard.fanout_seconds", kind=kind).observe(wall_s)
        busiest = max(per_shard_cpu_s, default=0.0)
        total = sum(per_shard_cpu_s)
        imbalance = busiest * shards / total if total > 0 else 1.0
        occupancy = None
        if wall_s > 0 and shards > 0:
            occupancy = min(1.0, total / (shards * wall_s))
            m.histogram("shard.occupancy", edges=_RATIO_EDGES).observe(
                occupancy
            )
        m.gauge("shard.imbalance").set(imbalance)
        for i, cpu_s in enumerate(per_shard_cpu_s):
            m.counter("shard.cpu_seconds_total", shard=str(i)).inc(cpu_s)
        attrs = {
            "wall_s": wall_s, "total_cpu_s": total,
            "busiest_cpu_s": busiest, "imbalance": imbalance,
        }
        if occupancy is not None:
            attrs["occupancy"] = occupancy
        return attrs

    def record_shard_lifecycle(self, event: str, shard: int) -> None:
        """Count one worker-process lifecycle event.

        *event* is ``spawn`` (initial start), ``crash`` (pipe hit EOF),
        ``respawn`` (replacement started), or ``shutdown`` (poison-pill
        drain) — the numbers that distinguish a healthy pool from one
        churning through workers.  The counter carries the shard id as
        a label, so one flapping worker stands out from fleet-wide
        churn.
        """
        self.metrics.counter("shard.lifecycle_total", event=event,
                             shard=str(int(shard))).inc()
        with self.span("shard:lifecycle", event=event, shard=int(shard)):
            pass

    def record_shard_health(self, health) -> None:
        """Publish one shard's :class:`~repro.shard.health.ShardHealth`
        row as per-shard ``shard.health.*`` gauges.

        Called by the router's health probe (and therefore by the
        background heartbeat) for every shard on every beat, so the
        gauges always carry the latest sample; ``None`` fields (no
        ping yet, no procfs) leave their gauge untouched rather than
        publishing a fake zero.
        """
        m = self.metrics
        sid = str(health.shard)
        m.gauge("shard.health.alive", shard=sid).set(
            1.0 if health.alive else 0.0
        )
        m.gauge("shard.health.epoch", shard=sid).set(health.epoch)
        m.gauge("shard.health.respawns", shard=sid).set(health.respawns)
        m.gauge("shard.health.requests", shard=sid).set(health.requests)
        m.gauge("shard.health.uptime_seconds", shard=sid).set(
            health.uptime_s
        )
        if health.ping_rtt_s is not None:
            m.gauge("shard.health.ping_rtt_seconds", shard=sid).set(
                health.ping_rtt_s
            )
        if health.last_reply_age_s is not None:
            m.gauge("shard.health.last_reply_age_seconds", shard=sid).set(
                health.last_reply_age_s
            )
        if health.rss_bytes is not None:
            m.gauge("shard.health.rss_bytes", shard=sid).set(
                health.rss_bytes
            )

    def record_quality_query(self, scenario: str, severity: float,
                             rank: int, db_size: int, *,
                             duration_s: float | None = None,
                             contour_rank: int | None = None) -> None:
        """Fold one ground-truth-labelled quality query into telemetry.

        *rank* is the 1-based competition rank of the intended melody
        (``db_size`` when retrieval missed entirely); *scenario* /
        *severity* name the degradation applied to the hum (see
        :mod:`repro.hum.degrade`).  *contour_rank*, when given, is the
        contour-string baseline's rank for the same degraded hum — the
        paper's comparison point, carried along so the scenario matrix
        can print it next to ours.

        Emits ``quality.*`` counters plus an *instant* root span
        ``quality:query`` whose attributes carry the event — the same
        shape as ``serve:request``, so trace files replay into the
        scenario matrix offline.
        """
        m = self.metrics
        sev = f"{float(severity):g}"
        m.counter("quality.queries_total",
                  scenario=scenario, severity=sev).inc()
        m.counter("quality.reciprocal_rank_total",
                  scenario=scenario, severity=sev).inc(
            1.0 / rank if rank >= 1 else 0.0)
        for k in (1, 5, 10):
            if 1 <= rank <= k:
                m.counter("quality.recall_hits_total",
                          scenario=scenario, severity=sev, k=str(k)).inc()
        if duration_s is not None:
            m.histogram("quality.query_seconds",
                        scenario=scenario).observe(duration_s)
        attrs = {
            "scenario": scenario, "severity": float(severity),
            "rank": int(rank), "db": int(db_size),
        }
        if duration_s is not None:
            attrs["duration_s"] = float(duration_s)
        if contour_rank is not None:
            attrs["contour_rank"] = int(contour_rank)
        with self.span("quality:query", **attrs):
            pass

    def record_shadow_check(self, agree: bool) -> None:
        """Fold one shadow-scoring comparison into metrics.

        Called by :class:`~repro.obs.quality.ShadowScorer` for every
        sampled served request re-checked against exact DTW.  Besides
        the check/disagree counters, publishes the running ratio as
        the ``quality.shadow.agreement`` gauge so a scrape sees live
        answer quality without reading counters itself.
        """
        m = self.metrics
        checked = m.counter("quality.shadow.checked_total")
        disagreed = m.counter("quality.shadow.disagreed_total")
        checked.inc()
        if not agree:
            disagreed.inc()
        total = checked.value
        if total > 0:
            m.gauge("quality.shadow.agreement").set(
                (total - disagreed.value) / total
            )

    def record_ingest_rebuild(self, *, rows_added: int, rows_total: int,
                              generation: int, pending: int,
                              duration_s: float) -> None:
        """Fold one completed ingest rebuild-and-swap into metrics.

        Called by :class:`~repro.ingest.IngestCoordinator` after the
        new store generation is live.  Publishes the generation and
        corpus size as gauges so a scrape sees the swap without
        reading counters, and the rebuild latency as a histogram.
        """
        m = self.metrics
        m.counter("ingest.rebuilds_total").inc()
        m.counter("ingest.rows_ingested_total").inc(rows_added)
        m.histogram("ingest.rebuild_seconds").observe(duration_s)
        m.gauge("ingest.generation").set(generation)
        m.gauge("ingest.rows").set(rows_total)
        m.gauge("ingest.pending").set(pending)

    def record_ingest_failure(self) -> None:
        """Count one dropped ingest batch (rebuild raised)."""
        self.metrics.counter("ingest.failures_total").inc()

    def _check_slow(self, kind: str, stats) -> None:
        if (self.slow_query_s is None
                or stats.total_time_s < self.slow_query_s):
            return
        record = {
            "timestamp_s": wall_s(),
            "kind": kind,
            "duration_ms": stats.total_time_s * 1e3,
            "corpus_size": stats.corpus_size,
            "refined": stats.dtw_computations,
            "results": stats.results,
            "pruned": stats.pruned_total,
        }
        self.slow_queries.append(record)
        if self.on_slow is not None:
            self.on_slow(record)


class _DisabledObservability(Observability):
    """Observability off: every hook is an immediate return.

    One shared instance (:data:`OBS_DISABLED`) is the default ``obs``
    of every engine, index, and system object.  ``span`` hands back
    the no-op tracer's shared null context manager; the record hooks
    are overridden to do nothing, so the hot path's cost is one
    method call per hook site.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(tracer=NOOP_TRACER)

    def record_cascade_query(self, kind, stats,
                             kernel_stats=None) -> None:
        """Do nothing (observability is disabled)."""

    def record_kernel(self, kernel_stats) -> None:
        """Do nothing (observability is disabled)."""

    def record_index_query(self, kind, stats, duration_s) -> None:
        """Do nothing (observability is disabled)."""

    def record_serve_request(self, kind, status, queue_wait_s,
                             service_time_s, *, from_cache=False) -> None:
        """Do nothing (observability is disabled)."""

    def record_serve_batch(self, kind, size, service_time_s,
                           queue_depth) -> None:
        """Do nothing (observability is disabled)."""

    def record_serve_cache(self, event) -> None:
        """Do nothing (observability is disabled)."""

    def record_shard_fanout(self, kind, shards, wall_s,
                            per_shard_cpu_s) -> dict:
        """Do nothing (observability is disabled)."""
        return {}

    def record_shard_lifecycle(self, event, shard) -> None:
        """Do nothing (observability is disabled)."""

    def record_shard_health(self, health) -> None:
        """Do nothing (observability is disabled)."""

    def record_quality_query(self, scenario, severity, rank, db_size, *,
                             duration_s=None, contour_rank=None) -> None:
        """Do nothing (observability is disabled)."""

    def record_ingest_rebuild(self, *, rows_added, rows_total, generation,
                              pending, duration_s) -> None:
        """Do nothing (observability is disabled)."""

    def record_ingest_failure(self) -> None:
        """Do nothing (observability is disabled)."""

    def record_shadow_check(self, agree) -> None:
        """Do nothing (observability is disabled)."""


#: The shared disabled facade — the default everywhere.
OBS_DISABLED = _DisabledObservability()

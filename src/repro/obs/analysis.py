"""Trace analytics: turn exported span JSONL into answers.

The tracing layer (:mod:`repro.obs.tracing`) writes one span per line;
this module is the consumer that aggregates those lines back into the
questions an operator actually asks of a query-by-humming deployment:

* **Latency** — per-span-name duration distributions (``query``,
  ``stage:<name>``, ``refine``, ``kernel``) folded through the same
  cumulative-``le`` :class:`~repro.obs.metrics.Histogram` the metrics
  registry uses, with p50/p95/p99 read off the cumulative buckets.
* **Pruning power** — the cascade's candidate accounting summed over
  every traced query: candidates in/out per stage, prune rates, and
  bound-tightness ratios (each stage's mean bound relative to the
  tightest stage's — how close the cheap bounds get to the expensive
  ones, the quantity Theorem 1 trades index geometry for).
* **Critical path** — per trace, the root-to-leaf chain of child
  spans with the largest duration; aggregated over all traces this
  names the spans where the latency actually lives.
* **Folded stacks** — ``parent;child;... <self-time-us>`` lines, the
  flamegraph interchange format, so any stack-collapse viewer can
  render where traced time went.

Reading is *streaming* and *tolerant*: span lines are consumed one at
a time (a multi-gigabyte trace log never loads at once), lines that
are truncated or not JSON are counted and skipped rather than fatal
— a live exporter may be mid-write when the reader arrives — and
traces whose root never closed are reported as incomplete instead of
poisoning the aggregate.  Concurrent serving interleaves
*traces* in the file (each trace's spans stay contiguous because the
sink runs under a lock, but trace order follows completion order);
grouping here is by ``trace_id``, so interleaving is harmless.

* **Per-shard breakdown** — the sharded tier's workers ship their
  spans home renamed ``shard:query`` and stamped with ``shard`` /
  ``worker_epoch``; aggregated per shard these give latency
  percentiles, pruning power, work share, and the fleet's
  imbalance/skew ratio (``--per-shard``).

``repro obs report --trace FILE [--format table|json|folded]
[--per-shard]`` is the CLI surface over :func:`read_traces` +
:func:`analyze_traces`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .metrics import Histogram
from .quality import RECALL_KS

__all__ = [
    "SPAN_LATENCY_BUCKETS_S",
    "SERVE_OCCUPANCY_BUCKETS",
    "TraceReadStats",
    "iter_span_lines",
    "read_traces",
    "percentile_from_histogram",
    "StageAggregate",
    "ServeAggregate",
    "QualityCell",
    "QualityAggregate",
    "ShardAggregate",
    "SpanLatency",
    "TraceReport",
    "analyze_traces",
]

#: Histogram edges for span durations.  Finer-grained at the bottom
#: than the serving-latency buckets: stage spans on in-memory corpora
#: run tens of microseconds, and the percentile resolution is the
#: bucket edge.
SPAN_LATENCY_BUCKETS_S = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Histogram edges for micro-batch occupancy (batch size over
#: ``max_batch``, a fraction in (0, 1]).  Sixteenths: fine enough to
#: resolve every occupancy level of the default ``max_batch`` range.
SERVE_OCCUPANCY_BUCKETS = tuple(i / 16 for i in range(1, 17))

#: Span-dict keys every valid trace line must carry (the JSONL schema
#: of :meth:`repro.obs.tracing.Span.to_dict`).
_SPAN_KEYS = frozenset(
    {"name", "trace_id", "span_id", "parent_id", "start_s",
     "duration_s", "attrs"}
)


@dataclass
class TraceReadStats:
    """What the streaming reader saw, including what it had to skip."""

    lines: int = 0
    spans: int = 0
    bad_lines: int = 0
    traces: int = 0
    incomplete_traces: int = 0

    def to_dict(self) -> dict:
        """The read accounting as a JSON-ready dict."""
        return {
            "lines": self.lines,
            "spans": self.spans,
            "bad_lines": self.bad_lines,
            "traces": self.traces,
            "incomplete_traces": self.incomplete_traces,
        }


def iter_span_lines(
    lines: Iterable[str], stats: TraceReadStats | None = None
) -> Iterator[dict]:
    """Yield span dicts from JSONL *lines*, skipping damaged ones.

    A line is damaged when it is not valid JSON (e.g. truncated by a
    crash mid-write), not an object, or missing span-schema keys; each
    is counted in ``stats.bad_lines`` and skipped.  Blank lines are
    ignored silently.
    """
    if stats is None:
        stats = TraceReadStats()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        stats.lines += 1
        try:
            span = json.loads(line)
        except json.JSONDecodeError:
            stats.bad_lines += 1
            continue
        if not isinstance(span, dict) or not _SPAN_KEYS <= span.keys():
            stats.bad_lines += 1
            continue
        stats.spans += 1
        yield span


def read_traces(
    source, stats: TraceReadStats | None = None
) -> Iterator[list[dict]]:
    """Stream complete traces (span-dict lists, root last) from *source*.

    *source* is a path or an iterable of JSONL lines.  Spans are
    grouped by ``trace_id``; a trace is emitted the moment its root
    span (``parent_id`` null) arrives — the exporter writes the root
    last, so that is the trace-complete signal.  Root-less groups left
    at end of input (an exporter killed mid-trace) are dropped and
    counted in ``stats.incomplete_traces``.
    """
    if stats is None:
        stats = TraceReadStats()

    def _generate(lines) -> Iterator[list[dict]]:
        open_traces: dict[object, list[dict]] = {}
        for span in iter_span_lines(lines, stats):
            group = open_traces.setdefault(span["trace_id"], [])
            group.append(span)
            if span["parent_id"] is None:
                del open_traces[span["trace_id"]]
                stats.traces += 1
                yield group
        stats.incomplete_traces += len(open_traces)

    if hasattr(source, "__fspath__") or isinstance(source, str):
        def _from_file() -> Iterator[list[dict]]:
            with open(source, encoding="utf-8") as handle:
                yield from _generate(handle)
        return _from_file()
    return _generate(source)


def percentile_from_histogram(merged: dict, q: float) -> float | None:
    """Read the *q*-quantile (0..1) off a cumulative-``le`` snapshot.

    *merged* is :meth:`Histogram.merged` output.  Returns the upper
    edge of the first bucket whose cumulative count reaches
    ``q * count`` — the histogram's resolution-limited upper bound on
    the true percentile — using the observed ``max`` for the +Inf
    bucket and ``None`` when the histogram is empty.
    """
    total = merged["count"]
    if not total:
        return None
    target = q * total
    for bucket in merged["buckets"]:
        if bucket["count"] >= target:
            if bucket["le"] == "+Inf":
                return float(merged["max"])
            return min(float(bucket["le"]), float(merged["max"]))
    return float(merged["max"])  # pragma: no cover - +Inf always reaches


@dataclass
class SpanLatency:
    """Duration distribution of one span name across all traces."""

    name: str
    count: int
    total_s: float
    min_s: float
    max_s: float
    p50_s: float
    p95_s: float
    p99_s: float

    @property
    def mean_s(self) -> float:
        """Average duration in seconds."""
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """The latency row as a JSON-ready dict."""
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
        }


@dataclass
class StageAggregate:
    """Pruning power of one cascade stage summed over all traces."""

    name: str
    candidates_in: int = 0
    pruned: int = 0
    bound_mean_weighted: float = 0.0  # sum of bound_mean * candidates_in
    tightness: float | None = None    # set once all stages are known

    @property
    def survivors(self) -> int:
        """Candidates handed to the next stage."""
        return self.candidates_in - self.pruned

    @property
    def prune_rate(self) -> float:
        """Fraction of incoming candidates removed."""
        if not self.candidates_in:
            return 0.0
        return self.pruned / self.candidates_in

    @property
    def mean_bound(self) -> float:
        """Candidate-weighted mean of the stage's raw bound."""
        if not self.candidates_in:
            return 0.0
        return self.bound_mean_weighted / self.candidates_in

    def to_dict(self) -> dict:
        """The pruning-table row as a JSON-ready dict."""
        return {
            "name": self.name,
            "candidates_in": self.candidates_in,
            "pruned": self.pruned,
            "survivors": self.survivors,
            "prune_rate": self.prune_rate,
            "mean_bound": self.mean_bound,
            "tightness": self.tightness,
        }


@dataclass
class ServeAggregate:
    """Serving-layer accounting from ``serve:request``/``serve:batch``.

    The serving layer (:mod:`repro.serve`) emits *instant* root spans
    whose attributes carry the real timings — queue wait and service
    time for requests, size/occupancy for dispatched micro-batches —
    so the analysis reads attributes, never span durations, and the
    engine's ``query`` root spans stay untouched underneath.
    """

    requests: int = 0
    by_status: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    batches: int = 0
    batched_requests: int = 0
    coalesced: int = 0
    queue_wait: Histogram = field(default_factory=lambda: Histogram(
        "serve.queue_wait_seconds", {}, SPAN_LATENCY_BUCKETS_S
    ))
    service_time: Histogram = field(default_factory=lambda: Histogram(
        "serve.request_seconds", {}, SPAN_LATENCY_BUCKETS_S
    ))
    occupancy: Histogram = field(default_factory=lambda: Histogram(
        "serve.batch_occupancy", {}, SERVE_OCCUPANCY_BUCKETS
    ))

    def add_request(self, attrs: dict) -> None:
        """Fold one ``serve:request`` span's attributes in."""
        self.requests += 1
        status = attrs.get("status", "ok")
        self.by_status[status] = self.by_status.get(status, 0) + 1
        if attrs.get("from_cache"):
            self.cache_hits += 1
        self.queue_wait.observe(float(attrs.get("queue_wait_s", 0.0)))
        self.service_time.observe(float(attrs.get("service_time_s", 0.0)))

    def add_batch(self, attrs: dict) -> None:
        """Fold one ``serve:batch`` span's attributes in."""
        self.batches += 1
        size = int(attrs.get("size", 0))
        self.batched_requests += size
        self.coalesced += size - int(attrs.get("distinct", size))
        max_batch = int(attrs.get("max_batch", 0))
        if max_batch > 0:
            self.occupancy.observe(min(1.0, size / max_batch))

    def _rate(self, status: str) -> float:
        if not self.requests:
            return 0.0
        return self.by_status.get(status, 0) / self.requests

    @property
    def shed_rate(self) -> float:
        """Fraction of requests refused by admission control."""
        return self._rate("shed")

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of requests that ran out of deadline."""
        return self._rate("deadline_exceeded")

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests answered from the result cache."""
        if not self.requests:
            return 0.0
        return self.cache_hits / self.requests

    def _percentiles(self, hist: Histogram) -> dict:
        merged = hist.merged()
        return {
            "count": merged["count"],
            "p50": percentile_from_histogram(merged, 0.50),
            "p95": percentile_from_histogram(merged, 0.95),
            "p99": percentile_from_histogram(merged, 0.99),
            "max": merged["max"] if merged["count"] else None,
        }

    def to_dict(self) -> dict:
        """The serving section as one JSON-ready document."""
        return {
            "requests": self.requests,
            "by_status": dict(self.by_status),
            "shed_rate": self.shed_rate,
            "deadline_miss_rate": self.deadline_miss_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "coalesced": self.coalesced,
            "queue_wait_s": self._percentiles(self.queue_wait),
            "service_time_s": self._percentiles(self.service_time),
            "batch_occupancy": self._percentiles(self.occupancy),
        }


@dataclass
class QualityCell:
    """One (scenario, severity) cell of the scenario matrix."""

    scenario: str
    severity: float
    queries: int = 0
    hits: dict[int, int] = field(default_factory=dict)      # k -> hits
    rr_total: float = 0.0
    contour_queries: int = 0
    contour_hits: dict[int, int] = field(default_factory=dict)
    latency: Histogram = field(default_factory=lambda: Histogram(
        "quality.query_seconds", {}, SPAN_LATENCY_BUCKETS_S
    ))

    def add(self, attrs: dict) -> None:
        """Fold one ``quality:query`` span's attributes in."""
        self.queries += 1
        rank = int(attrs.get("rank", 0))
        for k in RECALL_KS:
            if 1 <= rank <= k:
                self.hits[k] = self.hits.get(k, 0) + 1
        if rank >= 1:
            self.rr_total += 1.0 / rank
        if "contour_rank" in attrs:
            self.contour_queries += 1
            contour_rank = int(attrs["contour_rank"])
            for k in RECALL_KS:
                if 1 <= contour_rank <= k:
                    self.contour_hits[k] = self.contour_hits.get(k, 0) + 1
        if "duration_s" in attrs:
            self.latency.observe(float(attrs["duration_s"]))

    def recall(self, k: int) -> float:
        """Fraction of queries whose ground truth ranked within *k*."""
        if not self.queries:
            return 0.0
        return self.hits.get(k, 0) / self.queries

    def contour_recall(self, k: int) -> float | None:
        """The contour baseline's recall@k, ``None`` when unmeasured."""
        if not self.contour_queries:
            return None
        return self.contour_hits.get(k, 0) / self.contour_queries

    @property
    def mrr(self) -> float:
        """Mean reciprocal rank of the ground-truth melody."""
        if not self.queries:
            return 0.0
        return self.rr_total / self.queries

    def to_dict(self) -> dict:
        """The matrix cell as a JSON-ready dict."""
        merged = self.latency.merged()
        return {
            "scenario": self.scenario,
            "severity": self.severity,
            "queries": self.queries,
            **{f"recall_at_{k}": self.recall(k) for k in RECALL_KS},
            "mrr": self.mrr,
            "contour_recall_at_10": self.contour_recall(10),
            "p50_ms": _ms(percentile_from_histogram(merged, 0.50)),
            "p95_ms": _ms(percentile_from_histogram(merged, 0.95)),
        }


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e3


@dataclass
class QualityAggregate:
    """Recall-vs-degradation accounting from ``quality:query`` spans.

    Like the serving layer, the quality runner emits *instant* root
    spans whose attributes carry the event (scenario, severity, rank
    of the ground-truth melody, wall time, optional contour-baseline
    rank), so offline analysis of a trace file reconstructs the full
    scenario matrix without touching any index.
    """

    cells: dict[tuple[str, float], QualityCell] = field(
        default_factory=dict)

    def add_query(self, attrs: dict) -> None:
        """Fold one ``quality:query`` span's attributes in."""
        key = (str(attrs.get("scenario", "unknown")),
               float(attrs.get("severity", 0.0)))
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = QualityCell(
                scenario=key[0], severity=key[1])
        cell.add(attrs)

    @property
    def queries(self) -> int:
        """Total quality queries folded in."""
        return sum(cell.queries for cell in self.cells.values())

    def rows(self) -> list[QualityCell]:
        """Cells in (scenario, severity) order."""
        return [self.cells[key] for key in sorted(self.cells)]

    def to_dict(self) -> dict:
        """The quality section as one JSON-ready document."""
        return {
            "queries": self.queries,
            "scenarios": [cell.to_dict() for cell in self.rows()],
        }


@dataclass
class ShardAggregate:
    """One shard's share of the work, from its ``shard:query`` spans.

    Worker root spans cross the process boundary renamed
    ``query`` → ``shard:query`` and stamped with ``shard`` /
    ``worker_epoch`` attributes (see :mod:`repro.shard.worker`), so a
    merged trace log carries enough to re-attribute every candidate,
    refine, and second of latency to the worker that produced it —
    the measurement ROADMAP's per-shard tuning needs.
    """

    shard: int
    queries: int = 0
    total_s: float = 0.0
    corpus_candidates: int = 0
    dtw_computations: int = 0
    results: int = 0
    epochs: set = field(default_factory=set)
    work_share: float = 0.0  # set once every shard's total is known
    latency: Histogram = field(default_factory=lambda: Histogram(
        "shard.query_seconds", {}, SPAN_LATENCY_BUCKETS_S
    ))

    def add(self, span: dict) -> None:
        """Fold one ``shard:query`` span in."""
        attrs = span["attrs"]
        self.queries += 1
        self.total_s += span["duration_s"]
        self.corpus_candidates += attrs.get("corpus_size", 0)
        self.dtw_computations += attrs.get("dtw_computations", 0)
        self.results += attrs.get("results", 0)
        if "worker_epoch" in attrs:
            self.epochs.add(attrs["worker_epoch"])
        self.latency.observe(span["duration_s"])

    @property
    def pruning_power(self) -> float:
        """Fraction of this shard's candidates never exactly refined."""
        if not self.corpus_candidates:
            return 0.0
        return 1.0 - self.dtw_computations / self.corpus_candidates

    def _percentile(self, q: float) -> float | None:
        return percentile_from_histogram(self.latency.merged(), q)

    def to_dict(self) -> dict:
        """The per-shard row as a JSON-ready dict."""
        merged = self.latency.merged()
        return {
            "shard": self.shard,
            "queries": self.queries,
            "total_s": self.total_s,
            "mean_s": self.total_s / self.queries if self.queries else 0.0,
            "p50_s": percentile_from_histogram(merged, 0.50),
            "p95_s": percentile_from_histogram(merged, 0.95),
            "p99_s": percentile_from_histogram(merged, 0.99),
            "corpus_candidates": self.corpus_candidates,
            "dtw_computations": self.dtw_computations,
            "results": self.results,
            "pruning_power": self.pruning_power,
            "work_share": self.work_share,
            "epochs": sorted(self.epochs),
        }


@dataclass
class TraceReport:
    """Everything :func:`analyze_traces` extracts from a trace log."""

    read: TraceReadStats
    latencies: list[SpanLatency] = field(default_factory=list)
    stages: list[StageAggregate] = field(default_factory=list)
    critical_paths: list[dict] = field(default_factory=list)
    folded: dict[str, int] = field(default_factory=dict)
    queries: int = 0
    results: int = 0
    dtw_computations: int = 0
    dtw_abandoned: int = 0
    corpus_candidates: int = 0
    serve: ServeAggregate | None = None
    quality: QualityAggregate | None = None
    shards: list[ShardAggregate] = field(default_factory=list)
    shard_imbalance: float | None = None

    def to_dict(self) -> dict:
        """The full report as one JSON-ready document."""
        return {
            "read": self.read.to_dict(),
            "queries": self.queries,
            "results": self.results,
            "dtw_computations": self.dtw_computations,
            "dtw_abandoned": self.dtw_abandoned,
            "corpus_candidates": self.corpus_candidates,
            "latencies": [row.to_dict() for row in self.latencies],
            "pruning": [row.to_dict() for row in self.stages],
            "critical_paths": list(self.critical_paths),
            "serve": self.serve.to_dict() if self.serve else None,
            "quality": self.quality.to_dict() if self.quality else None,
            "shards": [row.to_dict() for row in self.shards],
            "shard_imbalance": self.shard_imbalance,
        }

    def format_folded(self) -> str:
        """Folded-stack lines (``a;b;c <self-us>``), flamegraph-ready."""
        lines = [
            f"{path} {value}"
            for path, value in sorted(self.folded.items())
        ]
        return "\n".join(lines)

    def format_table(self, *, per_shard: bool = False) -> str:
        """A fixed-width terminal report (latency, pruning, paths).

        *per_shard* appends the per-shard breakdown table
        (``repro obs report --per-shard``) when the log carries
        ``shard:query`` spans.
        """
        out = [
            f"traces: {self.queries} queries "
            f"({self.read.spans} spans, {self.read.bad_lines} bad lines, "
            f"{self.read.incomplete_traces} incomplete)",
        ]
        if self.read.bad_lines:
            # Corrupt-line tolerance, surfaced: the reader skipped
            # lines, and a report that silently under-counts is worse
            # than one that says so.
            out.append(
                f"WARNING: skipped {self.read.bad_lines} undecodable "
                f"line(s) of {self.read.lines} read — counts below are "
                f"a lower bound"
            )
        out += [
            f"totals: {self.corpus_candidates} candidates -> "
            f"{self.dtw_computations} refined "
            f"({self.dtw_abandoned} abandoned) -> {self.results} results",
            "",
            f"{'span':<18}{'count':>7}{'mean ms':>9}{'p50 ms':>9}"
            f"{'p95 ms':>9}{'p99 ms':>9}{'max ms':>9}",
        ]
        for row in self.latencies:
            out.append(
                f"{row.name:<18}{row.count:>7}"
                f"{row.mean_s * 1e3:>9.3f}{row.p50_s * 1e3:>9.3f}"
                f"{row.p95_s * 1e3:>9.3f}{row.p99_s * 1e3:>9.3f}"
                f"{row.max_s * 1e3:>9.3f}"
            )
        out += [
            "",
            f"{'stage':<12}{'in':>10}{'pruned':>10}{'left':>10}"
            f"{'rate':>8}{'tightness':>11}",
        ]
        for stage in self.stages:
            tightness = (f"{stage.tightness:>11.3f}"
                         if stage.tightness is not None else f"{'-':>11}")
            out.append(
                f"{stage.name:<12}{stage.candidates_in:>10}"
                f"{stage.pruned:>10}{stage.survivors:>10}"
                f"{stage.prune_rate:>8.1%}{tightness}"
            )
        if self.critical_paths:
            out += ["", "critical paths (per-trace dominant chain):"]
            for entry in self.critical_paths:
                out.append(
                    f"  {entry['path']:<40} x{entry['count']:<5} "
                    f"mean {entry['mean_s'] * 1e3:.3f} ms"
                )
        if self.serve is not None:
            serve = self.serve
            statuses = ", ".join(
                f"{status} {count}"
                for status, count in sorted(serve.by_status.items())
            )
            out += [
                "",
                f"serving: {serve.requests} requests ({statuses})",
                f"  shed {serve.shed_rate:.1%}  "
                f"deadline-miss {serve.deadline_miss_rate:.1%}  "
                f"cache-hit {serve.cache_hit_rate:.1%}",
            ]

            def _row(label: str, pct: dict, unit_ms: bool) -> str:
                if not pct["count"]:
                    return f"  {label:<16}{'-':>9}"
                scale = 1e3 if unit_ms else 100.0
                return (
                    f"  {label:<16}"
                    f"{pct['p50'] * scale:>9.3f}{pct['p95'] * scale:>9.3f}"
                    f"{pct['p99'] * scale:>9.3f}{pct['max'] * scale:>9.3f}"
                )

            out.append(
                f"  {'':<16}{'p50':>9}{'p95':>9}{'p99':>9}{'max':>9}"
            )
            out.append(_row("queue wait ms",
                            serve._percentiles(serve.queue_wait), True))
            out.append(_row("service ms",
                            serve._percentiles(serve.service_time), True))
            if serve.batches:
                out.append(_row("occupancy %",
                                serve._percentiles(serve.occupancy), False))
                out.append(
                    f"  batches: {serve.batches} "
                    f"({serve.batched_requests} requests, "
                    f"{serve.coalesced} coalesced)"
                )
        if self.quality is not None:
            out.append("")
            out.append(
                f"quality: {self.quality.queries} ground-truth queries "
                f"over {len(self.quality.cells)} scenario cells "
                f"(--scenarios for the matrix)"
            )
        if per_shard:
            out += ["", *self._format_shard_table()]
        return "\n".join(out)

    def format_scenario_matrix(self) -> str:
        """The recall@k × latency matrix (``--scenarios``).

        One row per (scenario, severity) cell: our recall@{1,5,10} and
        MRR, the p50/p95 query latency, and the contour-string
        baseline's recall@10 on the identical degraded hums — the
        paper's Table-2 comparison re-run per error mode.
        """
        if self.quality is None or not self.quality.cells:
            return ("scenario matrix: no quality:query spans in this log "
                    "(run `repro quality --trace-out ...` first)")
        rows = self.quality.rows()
        scenarios = sorted({cell.scenario for cell in rows})
        severities = sorted({cell.severity for cell in rows})
        lines = [
            f"scenario matrix: {self.quality.queries} queries, "
            f"{len(scenarios)} scenarios x {len(severities)} severities",
            f"{'scenario':<15}{'sev':>6}{'n':>5}{'r@1':>7}{'r@5':>7}"
            f"{'r@10':>7}{'mrr':>7}{'p50 ms':>9}{'p95 ms':>9}"
            f"{'contour r@10':>14}",
        ]
        for cell in rows:
            d = cell.to_dict()
            p50 = f"{d['p50_ms']:>9.2f}" if d["p50_ms"] is not None \
                else f"{'-':>9}"
            p95 = f"{d['p95_ms']:>9.2f}" if d["p95_ms"] is not None \
                else f"{'-':>9}"
            contour = d["contour_recall_at_10"]
            contour_txt = (f"{contour:>14.2f}" if contour is not None
                           else f"{'-':>14}")
            lines.append(
                f"{cell.scenario:<15}{cell.severity:>6.2f}"
                f"{cell.queries:>5}"
                f"{d['recall_at_1']:>7.2f}{d['recall_at_5']:>7.2f}"
                f"{d['recall_at_10']:>7.2f}{d['mrr']:>7.2f}"
                f"{p50}{p95}{contour_txt}"
            )
        return "\n".join(lines)

    def _format_shard_table(self) -> list[str]:
        if not self.shards:
            return ["per-shard: no shard:query spans in this log "
                    "(run with --shards and tracing enabled)"]
        imbalance = (f"{self.shard_imbalance:.2f}"
                     if self.shard_imbalance is not None else "-")
        lines = [
            f"per-shard ({len(self.shards)} shards, "
            f"imbalance {imbalance}):",
            f"{'shard':<7}{'queries':>8}{'mean ms':>9}{'p50 ms':>9}"
            f"{'p95 ms':>9}{'p99 ms':>9}{'work':>7}{'pruned':>8}"
            f"{'refined':>9}  epochs",
        ]
        for row in self.shards:
            d = row.to_dict()
            epochs = ",".join(str(e) for e in d["epochs"]) or "-"
            lines.append(
                f"{row.shard:<7}{row.queries:>8}"
                f"{d['mean_s'] * 1e3:>9.3f}{d['p50_s'] * 1e3:>9.3f}"
                f"{d['p95_s'] * 1e3:>9.3f}{d['p99_s'] * 1e3:>9.3f}"
                f"{row.work_share:>7.1%}{row.pruning_power:>8.1%}"
                f"{row.dtw_computations:>9}  {epochs}"
            )
        return lines


def _children_index(trace: list[dict]) -> dict:
    children: dict[object, list[dict]] = {}
    for span in trace:
        children.setdefault(span["parent_id"], []).append(span)
    return children


def _critical_path(trace: list[dict], children: dict) -> list[dict]:
    """Root-to-leaf chain following the longest-duration child."""
    (root,) = children.get(None, [None])
    if root is None:  # pragma: no cover - read_traces guarantees a root
        return []
    path = [root]
    node = root
    while True:
        kids = children.get(node["span_id"])
        if not kids:
            return path
        node = max(kids, key=lambda s: s["duration_s"])
        path.append(node)


def _fold_trace(trace: list[dict], children: dict,
                folded: dict[str, int]) -> None:
    """Accumulate per-stack self time (µs) for the folded export."""
    (root,) = children.get(None, [None])
    if root is None:  # pragma: no cover - read_traces guarantees a root
        return
    stack = [(root, root["name"])]
    while stack:
        span, path = stack.pop()
        kids = children.get(span["span_id"], [])
        child_s = sum(kid["duration_s"] for kid in kids)
        self_us = int(round(max(span["duration_s"] - child_s, 0.0) * 1e6))
        folded[path] = folded.get(path, 0) + self_us
        for kid in kids:
            stack.append((kid, f"{path};{kid['name']}"))


def analyze_traces(
    traces: Iterable[list[dict]], read_stats: TraceReadStats | None = None
) -> TraceReport:
    """Aggregate complete traces into one :class:`TraceReport`.

    *traces* is what :func:`read_traces` yields (span-dict lists); pass
    the same *read_stats* object given to the reader so the report can
    carry the skip accounting.  The pruning table's candidate counts
    are exact sums of the stage spans' ``candidates_in``/``pruned``
    attributes — the same numbers ``--stats-json`` reports, because the
    engine sets both from one ``StageStats`` object.
    """
    report = TraceReport(read=read_stats or TraceReadStats())
    hists: dict[str, Histogram] = {}
    stages: dict[str, StageAggregate] = {}
    stage_order: list[str] = []
    paths: dict[str, dict] = {}
    shards: dict[int, ShardAggregate] = {}

    for trace in traces:
        # Serving-layer spans are instant roots whose attributes carry
        # the real timings; fold them into the serve section and keep
        # them out of the duration histograms / critical paths, where
        # their ~0 s durations would only mislead.
        if len(trace) == 1 and trace[0]["name"].startswith("serve:"):
            span = trace[0]
            if report.serve is None:
                report.serve = ServeAggregate()
            if span["name"] == "serve:request":
                report.serve.add_request(span["attrs"])
            elif span["name"] == "serve:batch":
                report.serve.add_batch(span["attrs"])
            continue
        # Quality events are instant roots too: attributes carry the
        # scenario, severity, and ground-truth rank (see
        # Observability.record_quality_query).
        if len(trace) == 1 and trace[0]["name"] == "quality:query":
            if report.quality is None:
                report.quality = QualityAggregate()
            report.quality.add_query(trace[0]["attrs"])
            continue
        children = _children_index(trace)
        for span in trace:
            hist = hists.get(span["name"])
            if hist is None:
                hist = hists[span["name"]] = Histogram(
                    span["name"], {}, SPAN_LATENCY_BUCKETS_S
                )
            hist.observe(span["duration_s"])
            attrs = span["attrs"]
            if span["name"] == "query" and span["parent_id"] is None:
                report.queries += 1
                report.results += attrs.get("results", 0)
                report.dtw_computations += attrs.get("dtw_computations", 0)
                report.dtw_abandoned += attrs.get("dtw_abandoned", 0)
                report.corpus_candidates += attrs.get("corpus_size", 0)
            elif span["name"] == "shard:query":
                sid = int(attrs.get("shard", -1))
                agg = shards.get(sid)
                if agg is None:
                    agg = shards[sid] = ShardAggregate(shard=sid)
                agg.add(span)
            elif span["name"].startswith("stage:"):
                name = attrs.get("name", span["name"][len("stage:"):])
                agg = stages.get(name)
                if agg is None:
                    agg = stages[name] = StageAggregate(name=name)
                    stage_order.append(name)
                agg.candidates_in += attrs.get("candidates_in", 0)
                agg.pruned += attrs.get("pruned", 0)
                agg.bound_mean_weighted += (
                    attrs.get("bound_mean", 0.0)
                    * attrs.get("candidates_in", 0)
                )
        chain = _critical_path(trace, children)
        key = ";".join(span["name"] for span in chain)
        entry = paths.setdefault(key, {"path": key, "count": 0,
                                       "total_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += chain[0]["duration_s"] if chain else 0.0
        _fold_trace(trace, children, report.folded)

    # Tightness: each stage's candidate-weighted mean bound relative to
    # the tightest (last-configured) stage's.  Stage order in a trace
    # follows the cascade, so the last name seen is the tightest bound.
    if stage_order:
        reference = stages[stage_order[-1]].mean_bound
        for name in stage_order:
            agg = stages[name]
            agg.tightness = (
                agg.mean_bound / reference if reference > 0 else None
            )
    report.stages = [stages[name] for name in stage_order]

    # Per-shard work share and the fleet skew ratio (busiest shard's
    # total over the mean — 1.0 means the partition splits evenly).
    if shards:
        fleet_total = sum(agg.total_s for agg in shards.values())
        for agg in shards.values():
            agg.work_share = (
                agg.total_s / fleet_total if fleet_total > 0 else 0.0
            )
        mean_total = fleet_total / len(shards)
        report.shard_imbalance = (
            max(agg.total_s for agg in shards.values()) / mean_total
            if mean_total > 0 else 1.0
        )
        report.shards = [shards[sid] for sid in sorted(shards)]

    for name in sorted(hists):
        merged = hists[name].merged()
        if not merged["count"]:
            continue  # pragma: no cover - observed names always count
        report.latencies.append(SpanLatency(
            name=name,
            count=merged["count"],
            total_s=merged["sum"],
            min_s=merged["min"],
            max_s=merged["max"],
            p50_s=percentile_from_histogram(merged, 0.50),
            p95_s=percentile_from_histogram(merged, 0.95),
            p99_s=percentile_from_histogram(merged, 0.99),
        ))
    report.critical_paths = sorted(
        (
            {"path": entry["path"], "count": entry["count"],
             "mean_s": entry["total_s"] / entry["count"]}
            for entry in paths.values()
        ),
        key=lambda entry: -entry["count"],
    )
    return report

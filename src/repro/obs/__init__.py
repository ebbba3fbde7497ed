"""Observability: tracing spans, metrics, and query-log export.

The unified telemetry layer for the whole query path.  One
:class:`Observability` facade bundles

* a :class:`Tracer` producing nested spans
  (``query → stage:<name> → refine → kernel``) with monotonic-clock
  timing and JSONL export,
* a :class:`MetricsRegistry` of counters / gauges / fixed-bucket
  histograms whose per-thread shards merge exactly under concurrent
  callers, and
* a slow-query log (records + gated per-query trace capture) behind a
  latency threshold, and
* trace analytics (:mod:`repro.obs.analysis`): a streaming,
  corrupt-line-tolerant JSONL reader plus aggregation into per-stage
  latency percentiles, pruning-power tables, critical paths, and
  folded-stack (flamegraph) exports — ``repro obs report``.

Everything accepts the shared :data:`OBS_DISABLED` facade — the
default — whose hooks return immediately, so instrumentation costs
effectively nothing until a caller opts in
(``QueryEngine(obs=...)``, ``WarpingIndex(obs=...)``,
``repro query --trace-out/--metrics-out/--slow-query-ms``).

See ``docs/ARCHITECTURE.md`` ("Observability") for the span taxonomy
and the metric-name contract, and ``docs/TUTORIAL.md`` for a
walkthrough reading the exported JSONL.
"""

from .analysis import (
    TraceReadStats,
    TraceReport,
    analyze_traces,
    percentile_from_histogram,
    read_traces,
)
from .clock import monotonic_s, wall_s
from .export import (
    PeriodicSnapshotExporter,
    append_snapshot,
    format_top,
    prometheus_text,
    read_snapshot_series,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .observability import OBS_DISABLED, Observability
from .quality import (
    RECALL_KS,
    ShadowScorer,
    rank_of_target,
    recall_at,
    reciprocal_rank,
    results_agree,
)
from .tracing import (
    NOOP_TRACER,
    InMemorySink,
    JsonlSpanExporter,
    NoopTracer,
    Span,
    Tracer,
    slow_trace_filter,
)

__all__ = [
    "Observability",
    "OBS_DISABLED",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "Span",
    "InMemorySink",
    "JsonlSpanExporter",
    "slow_trace_filter",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_S",
    "monotonic_s",
    "wall_s",
    "read_traces",
    "analyze_traces",
    "TraceReport",
    "TraceReadStats",
    "percentile_from_histogram",
    "prometheus_text",
    "append_snapshot",
    "read_snapshot_series",
    "PeriodicSnapshotExporter",
    "format_top",
    "RECALL_KS",
    "ShadowScorer",
    "rank_of_target",
    "recall_at",
    "reciprocal_rank",
    "results_agree",
]

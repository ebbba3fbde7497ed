"""Counters, gauges, and fixed-bucket histograms, thread-sharded.

:class:`MetricsRegistry` is the process-wide (or per-engine) metric
store.  The design constraint is concurrent serving: several threads
(the serving layer's dispatcher, any caller's own pool) run queries
on one engine at once, so metric updates race — and the hot path may
not take a lock per increment.

The solution is per-thread shards: every metric keeps one private
cell per writer thread (created on the thread's first update, the only
moment a lock is taken), and each cell is only ever written by its
owning thread.  CPython's GIL makes each read-modify-write of a cell
attribute atomic with respect to readers, so :meth:`Counter.value` /
:meth:`MetricsRegistry.snapshot` merge the cells on *read* and lose no
updates — exact totals, no hot-path locks.  Snapshots taken while
writers are mid-flight are internally consistent per metric up to
updates still in flight; snapshots taken after the writers join (the
normal export moment) are exact.

Histograms use fixed, inclusive upper-edge buckets (Prometheus
``le``-style, with a ``+Inf`` catch-all) so merged snapshots from many
threads remain well-defined without per-observation coordination.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections.abc import Sequence

from .clock import wall_s
from .tracing import open_output

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
]

#: Default histogram edges for query latencies, in seconds.
DEFAULT_LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_name(name: str, label_key: tuple) -> str:
    if not label_key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{inner}}}"


class _Sharded:
    """Base for metrics with one write-cell per thread."""

    __slots__ = ("name", "labels", "_local", "_cells", "_lock")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = dict(labels)
        self._local = threading.local()
        self._cells: list = []
        self._lock = threading.Lock()

    def _new_cell(self):
        raise NotImplementedError

    def _cell(self):
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = self._new_cell()
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    @property
    def full_name(self) -> str:
        """Metric name with its labels rendered ``name{k=v,...}``."""
        return _render_name(self.name, _label_key(self.labels))


class _CounterCell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class Counter(_Sharded):
    """A monotonically increasing sum, exact across threads."""

    __slots__ = ()

    def _new_cell(self) -> _CounterCell:
        return _CounterCell()

    def inc(self, amount: int | float = 1) -> None:
        """Add *amount* (must be >= 0) to this thread's cell."""
        self._cell().value += amount

    @property
    def value(self) -> int | float:
        """The merged total across every writer thread."""
        with self._lock:
            return sum(cell.value for cell in self._cells)


class Gauge(_Sharded):
    """A last-written value (set is rare, so it simply locks)."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current level of the tracked quantity."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """The most recently set value."""
        with self._lock:
            return self._value


class _HistogramCell:
    __slots__ = ("bucket_counts", "count", "total", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # + the +Inf bucket
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None


class Histogram(_Sharded):
    """Fixed-bucket distribution with exact merged count/sum/min/max."""

    __slots__ = ("edges",)

    def __init__(self, name: str, labels: dict,
                 edges: Sequence[float]) -> None:
        super().__init__(name, labels)
        edges = tuple(float(e) for e in edges)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram edges must be strictly increasing, got {edges}"
            )
        self.edges = edges

    def _new_cell(self) -> _HistogramCell:
        return _HistogramCell(len(self.edges))

    def observe(self, value: float) -> None:
        """Record one observation into this thread's cell."""
        cell = self._cell()
        idx = bisect_left(self.edges, value)
        cell.bucket_counts[idx] += 1
        cell.count += 1
        cell.total += value
        if cell.min is None or value < cell.min:
            cell.min = value
        if cell.max is None or value > cell.max:
            cell.max = value

    def merged(self) -> dict:
        """Merge every thread's cell into one snapshot dict."""
        buckets = [0] * (len(self.edges) + 1)
        count = 0
        total = 0.0
        lo = hi = None
        with self._lock:
            cells = list(self._cells)
        for cell in cells:
            for i, c in enumerate(cell.bucket_counts):
                buckets[i] += c
            count += cell.count
            total += cell.total
            if cell.min is not None and (lo is None or cell.min < lo):
                lo = cell.min
            if cell.max is not None and (hi is None or cell.max > hi):
                hi = cell.max
        # Export cumulative (Prometheus ``le``-style) bucket counts:
        # each bucket counts every observation at or below its edge,
        # so the +Inf bucket always equals ``count``.
        cumulative = 0
        out_buckets = []
        for i, edge in enumerate(self.edges):
            cumulative += buckets[i]
            out_buckets.append({"le": edge, "count": cumulative})
        out_buckets.append({"le": "+Inf", "count": cumulative + buckets[-1]})
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "buckets": out_buckets,
        }

    @property
    def count(self) -> int:
        """Total number of observations across threads."""
        with self._lock:
            return sum(cell.count for cell in self._cells)


class MetricsRegistry:
    """Named metric store with lazy creation and JSON snapshots.

    ``counter`` / ``gauge`` / ``histogram`` return the existing metric
    for a ``(name, labels)`` pair or create it (under a lock) on first
    use; hot paths should hold on to the returned handle instead of
    looking it up per operation.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def _get(self, kind: str, name: str, labels: dict, factory):
        key = (kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = self._metrics[key] = factory()
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter registered under ``(name, labels)``."""
        return self._get("counter", name, labels,
                         lambda: Counter(name, labels))

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge registered under ``(name, labels)``."""
        return self._get("gauge", name, labels, lambda: Gauge(name, labels))

    def histogram(self, name: str,
                  edges: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
                  **labels) -> Histogram:
        """The histogram registered under ``(name, labels)``."""
        return self._get("histogram", name, labels,
                         lambda: Histogram(name, labels, edges))

    def snapshot(self) -> dict:
        """Merge every metric across threads into one JSON-ready dict."""
        with self._lock:
            metrics = dict(self._metrics)
        counters = {}
        gauges = {}
        histograms = {}
        for (kind, _, _), metric in sorted(metrics.items(),
                                           key=lambda kv: kv[0][:2]):
            if kind == "counter":
                counters[metric.full_name] = metric.value
            elif kind == "gauge":
                gauges[metric.full_name] = metric.value
            else:
                histograms[metric.full_name] = metric.merged()
        return {
            "timestamp_s": wall_s(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def write_json(self, path) -> dict:
        """Write :meth:`snapshot` to *path* as JSON; return the dict."""
        snap = self.snapshot()
        with open_output(path) as handle:
            json.dump(snap, handle, indent=2)
            handle.write("\n")
        return snap

"""Nested tracing spans with a JSONL exporter.

A :class:`Span` is one timed operation with free-form attributes; a
:class:`Tracer` maintains a per-thread stack of open spans so nesting
is implicit — the engine opens ``query``, each filter stage opens
``stage:<name>`` inside it, each refinement chunk opens ``refine``,
and each DTW kernel dispatch opens ``kernel``::

    query                      kind, corpus_size, results, ...
    └── stage:first_last       candidates_in, pruned, bound_*
    └── stage:new_paa          ...
    └── refine                 rows, dtw_computations
        └── kernel             backend, rows, cells

When the root span of a trace closes, the whole trace (every finished
span, root last) is handed to the tracer's *sink*.  Sinks are plain
callables; :class:`JsonlSpanExporter` writes one JSON object per span
per line, :class:`InMemorySink` collects traces for tests, and
:func:`slow_trace_filter` gates any sink behind a root-duration
threshold (the per-query trace capture of the slow-query log).

Thread model: each thread builds its own span stack (queries served by
concurrent threads become independent traces), and sinks are
invoked under a lock, so one exporter may serve many worker threads.

Traces can also cross a *process* boundary (the shard tier).  Three
pieces make one coherent tree out of spans produced by several
processes:

* ``id_prefix`` — a worker-side tracer mints span ids as strings like
  ``"w2e5-7"`` (shard 2, epoch 5, counter 7), so ids stay globally
  unique without any parent-side remapping, including across a worker
  respawn (the epoch in the prefix changes);
* :meth:`Tracer.set_remote_parent` — the worker installs the shipped
  ``(trace_id, parent span_id)`` so its next root-level span becomes a
  *child* of the router's fan-out span instead of a fresh trace;
* :meth:`Tracer.adopt` — the router grafts the worker's finished span
  records into the trace currently open on the calling thread,
  shifting their clocks by a caller-computed offset (see
  :mod:`repro.shard.router` for the re-anchoring arithmetic).

The :class:`NoopTracer` singleton (``NOOP_TRACER``) makes every
``span()`` call return one shared, reusable null context manager —
no allocation, no timestamps — so instrumented code pays near zero
when tracing is off.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections.abc import Callable, Sequence

from .clock import monotonic_s

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "InMemorySink",
    "JsonlSpanExporter",
    "slow_trace_filter",
]

#: A sink receives every span of one finished trace, root span last.
TraceSink = Callable[[Sequence["Span"]], None]


class Span:
    """One timed, attributed operation inside a trace.

    Attributes are free-form JSON-serialisable values set at open time
    (``tracer.span(name, **attrs)``) or later via :meth:`set`.  Counts
    recorded here are the *source data* for
    :class:`~repro.engine.CascadeStats` — the engine sets each stage
    span's attributes from the exact fields the stats dataclass
    carries, which is what makes the two reconcile by construction.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_s",
                 "end_s", "attrs")

    def __init__(self, name: str, trace_id, span_id,
                 parent_id, attrs: dict) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = monotonic_s()
        self.end_s: float | None = None
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach or overwrite attributes on the open span."""
        self.attrs.update(attrs)

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (up to now if the span is still open)."""
        end = self.end_s if self.end_s is not None else monotonic_s()
        return end - self.start_s

    def to_dict(self) -> dict:
        """The span as one JSON-ready record (the JSONL line schema)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        """Rebuild a span from its :meth:`to_dict` record.

        The inverse of the JSONL line schema — :meth:`Tracer.adopt`
        uses it to graft spans shipped across a process boundary.
        """
        span = cls(record["name"], record["trace_id"], record["span_id"],
                   record["parent_id"], dict(record["attrs"]))
        span.start_s = float(record["start_s"])
        span.end_s = span.start_s + float(record["duration_s"])
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, parent={self.parent_id})")


class _SpanHandle:
    """Context manager closing one span and delivering finished traces."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self.span)


class Tracer:
    """Produces nested spans and hands finished traces to a sink."""

    enabled = True

    def __init__(self, sink: TraceSink | None = None, *,
                 id_prefix: str | None = None) -> None:
        self._sink = sink
        self._ids = itertools.count(1)
        self._id_prefix = id_prefix
        self._local = threading.local()
        self._sink_lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = {"stack": [], "finished": [],
                                         "remote": None}
        return state

    def _next_id(self):
        n = next(self._ids)
        if self._id_prefix is None:
            return n
        return f"{self._id_prefix}{n}"

    def span(self, name: str, **attrs) -> _SpanHandle:
        """Open a span nested under this thread's innermost open span.

        With no open span and a remote parent installed (see
        :meth:`set_remote_parent`), the span joins the remote trace as
        a child of the remote span instead of rooting a new trace.
        """
        state = self._state()
        stack = state["stack"]
        if stack:
            parent = stack[-1]
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif state["remote"] is not None:
            trace_id, parent_id = state["remote"]
        else:
            trace_id, parent_id = self._next_id(), None
        span = Span(name, trace_id, self._next_id(), parent_id, attrs)
        stack.append(span)
        return _SpanHandle(self, span)

    def set_remote_parent(self, trace_id, span_id) -> None:
        """Parent this thread's next top-level spans under a span that
        lives in another process (the shard worker's side of trace
        propagation).  Stays in effect until
        :meth:`clear_remote_parent`; trace delivery to the sink still
        triggers whenever the local stack empties."""
        self._state()["remote"] = (trace_id, span_id)

    def clear_remote_parent(self) -> None:
        """Drop the remote parent installed on this thread, if any."""
        self._state()["remote"] = None

    def adopt(self, records, *, clock_offset_s: float = 0.0) -> None:
        """Graft finished span records from another process into the
        trace open on this thread.

        *records* are :meth:`Span.to_dict` dicts (the reply payload of
        a shard worker); *clock_offset_s* is added to each ``start_s``
        to re-anchor the remote process's ``perf_counter`` epoch onto
        this process's.  With no span open, the records are delivered
        straight to the sink as their own flush (they already carry a
        trace id).
        """
        spans = [Span.from_dict(record) for record in records]
        for span in spans:
            span.start_s += clock_offset_s
            span.end_s += clock_offset_s
        state = self._state()
        if state["stack"]:
            state["finished"].extend(spans)
        elif spans and self._sink is not None:
            with self._sink_lock:
                self._sink(spans)

    def _finish(self, span: Span) -> None:
        span.end_s = monotonic_s()
        state = self._state()
        stack = state["stack"]
        # Unwind to the finished span; tolerate exceptions having
        # skipped inner __exit__ calls.
        while stack:
            top = stack.pop()
            if top is span:
                break
            top.end_s = span.end_s  # pragma: no cover - exception unwind
        state["finished"].append(span)
        if not stack:
            finished, state["finished"] = state["finished"], []
            if self._sink is not None:
                with self._sink_lock:
                    self._sink(finished)

    def current_span(self) -> Span | None:
        """This thread's innermost open span, if any."""
        stack = self._state()["stack"]
        return stack[-1] if stack else None


class _NoopSpan:
    """Shared inert span: every mutation is a no-op."""

    __slots__ = ()
    name = "noop"
    attrs: dict = {}
    duration_s = 0.0

    def set(self, **attrs) -> None:
        pass


class _NoopHandle:
    __slots__ = ()
    _SPAN = _NoopSpan()

    def __enter__(self) -> _NoopSpan:
        return self._SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class NoopTracer:
    """Tracing disabled: ``span()`` returns one shared null handle."""

    enabled = False
    _HANDLE = _NoopHandle()

    def span(self, name: str, **attrs) -> _NoopHandle:
        """Return the shared inert context manager (zero allocation)."""
        return self._HANDLE

    def current_span(self) -> None:
        """There is never an open span on the no-op tracer."""
        return None

    def set_remote_parent(self, trace_id, span_id) -> None:
        """Do nothing (tracing is disabled)."""

    def clear_remote_parent(self) -> None:
        """Do nothing (tracing is disabled)."""

    def adopt(self, records, *, clock_offset_s: float = 0.0) -> None:
        """Do nothing (tracing is disabled)."""


#: The shared disabled tracer.
NOOP_TRACER = NoopTracer()


class InMemorySink:
    """Collects finished traces as lists of spans (for tests)."""

    def __init__(self) -> None:
        self.traces: list[list[Span]] = []

    def __call__(self, spans: Sequence[Span]) -> None:
        self.traces.append(list(spans))

    @property
    def spans(self) -> list[Span]:
        """All spans across all traces, in finish order."""
        return [span for trace in self.traces for span in trace]


class JsonlSpanExporter:
    """Writes every span of every finished trace to a JSONL file.

    *append* controls the open mode explicitly: ``True`` extends an
    existing log (accumulating a slow-query corpus across runs),
    ``False`` truncates — there is no implicit mode.  Under
    concurrent callers, whole traces stay contiguous
    (sinks run under the tracer's lock) but trace *order* follows
    completion order, so concurrent queries interleave their trace
    roots in the file; readers must group by ``trace_id`` (see
    :mod:`repro.obs.analysis`).
    """

    def __init__(self, path, append: bool = True) -> None:
        self.path = path
        self._handle = open(path, "a" if append else "w", encoding="utf-8")

    def __call__(self, spans: Sequence[Span]) -> None:
        for span in spans:
            self._handle.write(json.dumps(span.to_dict()) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            self._handle.close()


def slow_trace_filter(threshold_s: float, sink: TraceSink) -> TraceSink:
    """Wrap *sink* so only traces with a slow root span reach it.

    The root span is the one without a parent; a trace is forwarded
    when its root duration is at least *threshold_s* seconds.
    """

    def filtered(spans: Sequence[Span]) -> None:
        root = next((s for s in spans if s.parent_id is None), None)
        if root is not None and root.duration_s >= threshold_s:
            sink(spans)

    return filtered

"""The shard worker process: one engine, one pipe, one loop.

``worker_main`` is the target of every :class:`~repro.shard.ShardRouter`
process.  It rebuilds its engine from a picklable
:class:`~repro.shard.spec.EngineSpec` (corpus block mapped read-only,
shipped once — never per query), then serves request messages until a
poison pill (``None``) or pipe closure ends the loop.

Protocol (tuples over a ``multiprocessing.Pipe``):

====================================================  ====================
parent → worker                                       worker → parent
====================================================  ====================
``("req", id, kind, query, param, remaining,          ``("ok", id, results,
collect[, trace_ctx])``                               stats dict, kernel
                                                      counters, spans,
                                                      recv_s)``
                                                      ``("aborted", id,
                                                      phase, spans,
                                                      recv_s)``
                                                      ``("error", id, type,
                                                      message)``
``("ping", id)``                                      ``("pong", id)``
``("ping", id, True)``                                ``("pong", id, health)``
``("crash", now)``                                    *(process exits)*
``None`` — poison pill                                *(clean exit)*
====================================================  ====================

Deadlines ship as *remaining seconds*, not absolute timestamps:
:data:`repro.obs.clock.monotonic_s` is ``time.perf_counter``, whose
epoch is per-process, so the worker re-anchors the deadline against
its own clock on receipt.  The skew this admits is one pipe hop —
microseconds — versus being unboundedly wrong with absolute values.

Tracing crosses the pipe the same way.  ``trace_ctx`` is the router's
``(trace_id, fanout span_id)``; when present, the worker runs the
engine under a real :class:`~repro.obs.tracing.Tracer` whose remote
parent is the fan-out span and whose span ids carry a
``w<shard>e<epoch>-`` prefix (globally unique, even across respawns).
The completed spans ship back in the ``ok``/``aborted`` reply as plain
dicts together with ``recv_s`` — the worker-clock time this request
was received — which the router subtracts from its own send time to
re-anchor every span onto the parent's ``perf_counter`` epoch.  Worker
root spans are renamed ``query`` → ``shard:query`` and every shipped
span is stamped ``shard`` / ``worker_epoch`` / ``remote`` so the
merged trace stays attributable per process.  An aborted query
unwinds its span context managers before replying, so a worker can
never ship (or leak) a half-open span.

``("ping", id, True)`` is the health probe: the reply carries the
worker's RSS (``/proc`` stat), served-request count, epoch, and pid.
The bare two-tuple ping stays byte-compatible with the PR 6 protocol.

``("crash", now)`` exists for the fault-injection tests: with
``now=True`` the worker dies immediately, otherwise it dies at the
*next* request — the mid-request crash the respawn-and-retry path
must survive.
"""

from __future__ import annotations

import os

from ..engine.errors import QueryAborted
from ..obs import OBS_DISABLED, Observability
from ..obs.clock import monotonic_s
from ..obs.tracing import Tracer
from .health import read_rss_bytes

__all__ = ["worker_main"]

#: The ``dtw.*`` counters a worker diffs around each request so the
#: router can fold per-request kernel work into the parent's metrics
#: (``rows`` is not metered by the obs layer, so three counters are a
#: lossless projection of :meth:`Observability.record_kernel`).
_KERNEL_COUNTERS = (
    "dtw.kernel_calls_total",
    "dtw.cells_total",
    "dtw.columns_compacted_total",
)


def _kernel_totals(obs: Observability) -> tuple:
    return tuple(obs.metrics.counter(name).value for name in _KERNEL_COUNTERS)


class _TraceBuffer:
    """Sink collecting finished worker spans until the reply drains them."""

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: list = []

    def __call__(self, spans) -> None:
        self.spans.extend(spans)

    def drain(self) -> list:
        out, self.spans = self.spans, []
        return out


def _ship_spans(buffer: _TraceBuffer, shard: int, epoch: int,
                parent_span_id) -> list:
    """Drain the trace buffer into reply-ready span dicts.

    Root-level worker spans (children of the router's fan-out span)
    are renamed ``query`` → ``shard:query`` — the parent trace already
    has its own ``query`` root, and the rename is what the per-shard
    analysis keys on.  Every span is stamped with its origin so the
    merged trace stays attributable after the graft.
    """
    records = []
    for span in buffer.drain():
        record = span.to_dict()
        if record["name"] == "query" and record["parent_id"] == parent_span_id:
            record["name"] = "shard:query"
        record["attrs"].update(shard=shard, worker_epoch=epoch, remote=True)
        records.append(record)
    return records


def worker_main(spec, conn, epoch: int = 0) -> None:
    """Serve one shard until the poison pill (process entry point)."""
    try:
        engine = spec.build()
    except BaseException:
        # A spec that cannot build (file vanished, bad config) must not
        # hang the router: closing the pipe surfaces as a crash there.
        conn.close()
        raise
    obs = None
    traced_obs = None
    trace_buffer = None
    served = 0
    crash_next = False
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:  # poison pill: drain-and-exit
            break
        command = message[0]
        if command == "ping":
            if len(message) > 2 and message[2]:
                health = {
                    "rss_bytes": read_rss_bytes(),
                    "requests": served,
                    "epoch": epoch,
                    "pid": os.getpid(),
                }
                conn.send(("pong", message[1], health))
            else:
                conn.send(("pong", message[1]))
            continue
        if command == "crash":
            if message[1]:
                os._exit(13)
            crash_next = True
            continue
        _, req_id, kind, query, param, remaining, collect = message[:7]
        trace_ctx = message[7] if len(message) > 7 else None
        recv_s = monotonic_s()
        if crash_next:
            os._exit(13)
        if trace_ctx is not None:
            if traced_obs is None:
                # Full tracing facade: spans are buffered locally and
                # shipped back with each reply.  The id prefix keeps
                # span ids globally unique across processes *and*
                # respawns (a replacement worker gets a new epoch).
                trace_buffer = _TraceBuffer()
                traced_obs = Observability(tracer=Tracer(
                    sink=trace_buffer,
                    id_prefix=f"w{spec.shard}e{epoch}-",
                ))
            engine.obs = traced_obs
            traced_obs.tracer.set_remote_parent(trace_ctx[0], trace_ctx[1])
            before = _kernel_totals(traced_obs)
        elif collect:
            if obs is None:
                # Metrics-only facade: enables the engine's KernelStats
                # collection and the dtw.* counters the router re-merges;
                # the no-op tracer keeps spans free.
                obs = Observability()
            engine.obs = obs
            before = _kernel_totals(obs)
        else:
            engine.obs = OBS_DISABLED
        should_abort = None
        if remaining is not None:
            deadline = recv_s + remaining
            should_abort = lambda: monotonic_s() > deadline  # noqa: E731
        try:
            if kind == "range":
                results, stats = engine.range_search(
                    query, param, should_abort=should_abort
                )
            else:
                results, stats = engine.knn(
                    query, param, should_abort=should_abort
                )
        except QueryAborted as exc:
            spans = None
            if trace_ctx is not None:
                # The span context managers unwound with the exception,
                # so every buffered span is closed — ship them: aborted
                # work is exactly what a trace consumer wants to see.
                traced_obs.tracer.clear_remote_parent()
                spans = _ship_spans(trace_buffer, spec.shard, epoch,
                                    trace_ctx[1])
            served += 1
            conn.send(("aborted", req_id, exc.phase, spans, recv_s))
            continue
        except Exception as exc:
            if trace_ctx is not None:
                # Error replies stay 4-tuples (typed, minimal); drop the
                # partial spans so they cannot bleed into the next request.
                traced_obs.tracer.clear_remote_parent()
                trace_buffer.drain()
            served += 1
            conn.send(("error", req_id, type(exc).__name__, str(exc)))
            continue
        kernel = None
        spans = None
        if trace_ctx is not None:
            traced_obs.tracer.clear_remote_parent()
            spans = _ship_spans(trace_buffer, spec.shard, epoch,
                                trace_ctx[1])
            after = _kernel_totals(traced_obs)
            kernel = tuple(b - a for b, a in zip(after, before))
        elif collect:
            after = _kernel_totals(obs)
            kernel = tuple(b - a for b, a in zip(after, before))
        served += 1
        conn.send(("ok", req_id, results, stats.to_dict(), kernel,
                   spans, recv_s))
    conn.close()

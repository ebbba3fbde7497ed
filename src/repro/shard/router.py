""":class:`ShardRouter` — fan out exact queries to worker processes.

The GIL caps a single Python process at roughly one core of kernel
time no matter how many threads serve it.  The router escapes that by
partitioning the corpus into N contiguous row blocks, giving each
block to a persistent **worker process** (see
:mod:`~repro.shard.worker`), and fanning every query out to all
shards at once.  Merging is exact by construction:

* each shard returns its block's *k* best within ε (every member
  within ε when *k* is unset) — a superset of that block's share of the
  global answer (lower-bound filtering admits no false dismissals per
  shard, Zhu & Shasha 2003; the Seidl–Kriegel multi-step invariant
  restricted to the block), so concatenating the shards' answers in
  shard order, sorting stably by distance and cutting at *k* is the
  exact global answer, in the engine's (distance, corpus row) order.

Per-shard :class:`~repro.engine.CascadeStats` re-merge through
``CascadeStats.from_dict`` + ``__add__``, so ``--stats`` and
``obs report`` stay lossless; per-request kernel counters ship back as
deltas and fold into the parent's ``dtw.*`` metrics.

Traces cross the process boundary too: when the parent traces, each
request ships the fan-out span's ``(trace_id, span_id)`` to every
worker, which runs its engine under a real tracer (span ids prefixed
``w<shard>e<epoch>-``) and returns its finished spans in the reply.
The router re-anchors those spans onto its own ``perf_counter`` epoch
— offset = parent send time − worker receive time, one pipe hop of
skew, the deadline trick in reverse — and grafts them under the
fan-out span, so the export reads ``query → shard:fanout →
shard:query → stage:*/refine/kernel`` as one connected tree.  Spans of
an *abandoned* request (a stale reply dropped by the ``req_id``
filter) are dropped with the reply: an abandoned fan-out contributes
its parent-side spans only.

Health lives alongside: the router passively stamps per-shard request
counts and reply times as it serves, :meth:`ShardRouter.ping` actively
probes RTT/RSS/liveness (the :class:`~repro.shard.health.ShardHealthMonitor`
heartbeat calls it on an interval), and
:meth:`ShardRouter.health_snapshot` reads the rows lock-free.

Failure semantics: a worker crash (its pipe hits EOF) triggers an
automatic respawn from the shard's pickled
:class:`~repro.shard.spec.EngineSpec` and a single retry of the
in-flight request; a second crash on the same request raises a typed
:class:`ShardError`.  Every respawn (and every explicit rebuild via
:class:`IndexShardManager`) bumps :attr:`ShardRouter.epoch`, which the
serving layer folds into its cache version so no stale answer can
outlive the shards that computed it.  Shutdown is poison-pill + drain:
each worker receives ``None``, finishes its in-flight work, and exits.

When a fan-out fails early — one shard replies ``aborted`` or
``error`` — the request is abandoned parent-side, but the *other*
workers are not interrupted: a worker computes each request to
completion (its only early exit is the cooperative deadline it was
shipped), and its now-stale reply is dropped by the ``req_id`` filter
of the next gather loop.  Callers on a hot failure path should
therefore always set a deadline, which bounds the work every shard
spends on a request that no one is waiting for anymore.

Fan-outs are **serialized**: a router-level lock makes
``search`` safe to call from concurrent threads (the
serving layer's dispatcher threads do), at the cost of running one
fan-out at a time — the shard pool itself is the parallelism, so
concurrent fan-outs would only interleave pipe traffic, not add
throughput.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import shutil
import tempfile
import threading
from multiprocessing.connection import wait as _wait_ready

import numpy as np

from ..dtw.kernels import KernelStats
from ..engine.cascade import (DEFAULT_STAGES, CascadeStats,
                              _query_span_attrs, check_search, query_kind)
from ..engine.errors import QueryAborted, RouterClosed, ShardError
from ..obs import OBS_DISABLED
from ..obs.clock import monotonic_s
from .health import ShardHealth
from .spec import EngineSpec
from .worker import worker_main

__all__ = ["ShardRouter", "ShardError", "IndexShardManager",
           "resolve_mp_context"]

#: How long one gather poll blocks before re-checking aborts (seconds).
_POLL_S = 0.02


def resolve_mp_context(context=None):
    """A usable multiprocessing context.  Accepts a context object, a
    start-method name, or ``None`` for the default:

    * ``fork`` where available **and** the calling process is still
      single-threaded (cheapest — the corpus file is already written,
      nothing re-imports);
    * ``spawn`` otherwise.  Forking a multi-threaded Python process
      can deadlock the child on locks (threading, allocator, BLAS
      internals) held by other threads at fork time, and a live
      :class:`~repro.serve.QBHService` always has scheduler
      threads running — so any spawn that happens with
      threads alive must not fork.

    An explicit *context* is honored as given; the thread check only
    shapes the default.
    """
    if context is None:
        methods = multiprocessing.get_all_start_methods()
        use_fork = "fork" in methods and threading.active_count() <= 1
        return multiprocessing.get_context("fork" if use_fork else "spawn")
    if isinstance(context, str):
        return multiprocessing.get_context(context)
    return context


class _Shard:
    """One worker process plus its parent-side pipe end and the health
    fields the router updates as a side effect of serving.

    The health fields are written one attribute at a time (atomic under
    the GIL) and read lock-free by :meth:`ShardRouter.health_snapshot`;
    ``last_sent_s`` doubles as the clock-re-anchoring reference for
    grafted worker spans (parent send time of the request whose reply
    is being consumed — fan-outs are serialized, so there is exactly
    one in flight per pipe)."""

    __slots__ = ("spec", "process", "conn", "epoch", "spawned_s",
                 "respawns", "requests", "last_sent_s", "last_reply_s",
                 "last_rtt_s", "rss_bytes")

    def __init__(self, spec, process, conn, epoch: int) -> None:
        self.spec = spec
        self.process = process
        self.conn = conn
        self.epoch = epoch
        self.spawned_s = monotonic_s()
        self.respawns = 0
        self.requests = 0
        self.last_sent_s: float | None = None
        self.last_reply_s: float | None = None
        self.last_rtt_s: float | None = None
        self.rss_bytes: int | None = None


class ShardRouter:
    """Exact search over a corpus partitioned across worker processes.

    Parameters
    ----------
    data:
        The full corpus as a 2-D float array (already normalised —
        rows are comparable as-is).
    shards:
        Worker-process count (clamped to the row count).
    band / stages / n_features / metric:
        Engine configuration, forwarded verbatim to every shard so a
        1-shard router and a plain :class:`~repro.engine.QueryEngine`
        are byte-identical (the cross-shard parity suite's premise).
    normal_form:
        Optional normalisation applied to each query *once*, router
        side, before fan-out (shard engines are built without one).
    ids:
        Identifiers, default ``range(len(data))``; partitioned with
        the rows.
    mp_context:
        Start method (``"fork"``/``"spawn"``), a context object, or
        ``None`` for the platform default.
    obs:
        Observability facade; fan-outs emit ``shard.*`` metrics and a
        ``shard:fanout`` span, worker lifecycle events are counted,
        and per-request kernel deltas fold into ``dtw.*``.
    epoch_start:
        First value of :attr:`epoch` (an :class:`IndexShardManager`
        threads it through rebuilds so the epoch never goes backward).

    The public query API mirrors :class:`~repro.engine.QueryEngine`
    (``search`` with its spellings ``range_search``/``knn``, and
    ``should_abort=``) plus a ``deadline_s=`` alternative that ships to
    the workers as remaining time — the serving layer uses it because
    a closure cannot cross a process boundary.

    All query methods (and :meth:`close`) are thread-safe: fan-outs
    serialize on a router-level lock, so concurrent callers queue
    rather than interleave pipe traffic.
    """

    #: Duck-typing flag for the serving layer (deadline propagation).
    is_sharded = True

    def __init__(self, data, *, shards, band,
                 stages=DEFAULT_STAGES, n_features: int = 8,
                 normal_form=None, ids=None, metric: str = "euclidean",
                 mp_context=None, obs=None, epoch_start: int = 0) -> None:
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("data must be a non-empty 2-D array")
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        m, n = data.shape
        shards = min(shards, m)
        self.obs = OBS_DISABLED if obs is None else obs
        self.band = int(band)
        self.metric = metric
        self.stages = tuple(stages)
        self.normal_form = normal_form
        if ids is None:
            ids = list(range(m))
        else:
            ids = list(ids)
            if len(ids) != m:
                raise ValueError(f"{m} series but {len(ids)} ids")
        self.ids = ids
        self.n_shards = shards
        #: Bumped on every worker respawn; an :class:`IndexShardManager`
        #: also bumps it across rebuilds.  The serving cache folds it
        #: into its version, so shard turnover invalidates stale entries.
        self.epoch = int(epoch_start)
        self._rows = m
        self._series_length = n
        self._mp = resolve_mp_context(mp_context)
        self._mp_explicit = mp_context is not None
        self._req_ids = itertools.count()
        # Serializes fan-outs (and close()) so concurrent callers never
        # interleave sends or steal each other's replies off the pipes.
        self._lock = threading.Lock()
        self._closed = False
        self._tmpdir = tempfile.mkdtemp(prefix="repro-shard-")
        data_path = os.path.join(self._tmpdir, "corpus.f64")
        # The one-time feature shipment: the whole normalised corpus as
        # a flat file every worker maps read-only.  Native float64 —
        # the digests of a sharded and an unsharded run must be
        # byte-identical, which a float32 round-trip would break.
        data.tofile(data_path)
        bounds = np.linspace(0, m, shards + 1).astype(int)
        self._shards: list[_Shard] = []
        for i in range(shards):
            start, stop = int(bounds[i]), int(bounds[i + 1])
            spec = EngineSpec(
                data_path=data_path, dtype="float64", rows=m, cols=n,
                row_start=start, row_stop=stop, shard=i,
                band=self.band, stages=self.stages,
                n_features=n_features, ids=tuple(ids[start:stop]),
                metric=metric,
            )
            self._shards.append(self._spawn(spec, event="spawn"))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_engine(cls, engine, *, shards, mp_context=None, obs=None,
                    epoch_start: int = 0) -> "ShardRouter":
        """Shard an existing :class:`~repro.engine.QueryEngine`.

        The router carries the engine's normal form (queries enter raw,
        exactly as they would the engine), so it is a drop-in
        replacement wherever the engine is called.
        """
        return cls(
            engine._data, shards=shards, band=engine.band,
            stages=engine.stages,
            n_features=engine._features.shape[1],
            normal_form=engine.normal_form, ids=list(engine.ids),
            metric=engine.metric,
            mp_context=mp_context,
            obs=engine.obs if obs is None and engine.obs.enabled else obs,
            epoch_start=epoch_start,
        )

    @classmethod
    def from_index(cls, index, *, shards, mp_context=None, obs=None,
                   epoch_start: int = 0) -> "ShardRouter":
        """Shard a :class:`~repro.index.gemini.WarpingIndex`'s corpus.

        Mirrors :meth:`WarpingIndex.engine`: queries are expected
        **pre-normalised** (the caller applies
        ``index.normal_form.apply``), which is how the serving layer
        and the CLI feed it.
        """
        snap = index._snapshot(tree=False)
        return cls(
            snap.data, shards=shards, band=index.band,
            n_features=index.feature_dim, ids=list(snap.ids),
            metric=index.metric,
            mp_context=mp_context,
            obs=index.obs if obs is None and index.obs.enabled else obs,
            epoch_start=epoch_start,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _spawn_context(self):
        """The context to start the next worker with.

        A defaulted ``fork`` context is only safe while this process is
        single-threaded; respawns and manager rebuilds run on a live
        service's dispatcher threads, where forking can
        deadlock the child on locks another thread held at fork time.
        So the start method is re-decided per spawn: an explicit
        *mp_context* is honored as given, a defaulted one falls back to
        ``spawn`` whenever other threads are alive.  The worker only
        needs its picklable :class:`EngineSpec`, so either method works.
        """
        if (not self._mp_explicit
                and self._mp.get_start_method() == "fork"
                and threading.active_count() > 1):
            return multiprocessing.get_context("spawn")
        return self._mp

    def _spawn(self, spec: EngineSpec, *, event: str) -> _Shard:
        ctx = self._spawn_context()
        parent_end, child_end = ctx.Pipe()
        # The worker is told the fleet epoch it was born into: it goes
        # into the span-id prefix and the health probe reply, which is
        # how a respawned worker's telemetry stays distinguishable from
        # its dead predecessor's.
        process = ctx.Process(
            target=worker_main, args=(spec, child_end, self.epoch),
            daemon=True, name=f"repro-shard-{spec.shard}",
        )
        process.start()
        child_end.close()  # parent keeps one end only, so EOF means death
        self.obs.record_shard_lifecycle(event, spec.shard)
        return _Shard(spec, process, parent_end, self.epoch)

    def close(self) -> None:
        """Poison-pill every worker, drain, and remove the corpus file."""
        with self._lock:
            self._shutdown(drain=True)

    def _shutdown(self, *, drain: bool) -> None:
        """Tear the fleet down.  ``drain=True`` (explicit close) waits
        for each worker to finish in-flight work; ``drain=False`` (the
        ``__del__`` path) terminates without joining so garbage
        collection of a leaked router can never block the interpreter
        behind a hung worker."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            try:
                shard.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for shard in self._shards:
            if drain:
                shard.process.join(timeout=5.0)
            if shard.process.is_alive():
                shard.process.terminate()
                if drain:  # pragma: no cover - hung worker
                    shard.process.join(timeout=5.0)
            shard.conn.close()
            self.obs.record_shard_lifecycle("shutdown", shard.spec.shard)
        shutil.rmtree(self._tmpdir, ignore_errors=True)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - gc-order dependent
        # No lock and no joins here: __del__ can run at an arbitrary
        # point (even mid-fan-out on another thread after a leak), so
        # it must neither block on a hung worker nor deadlock on the
        # router lock — terminate, close pipes, remove the tmpdir.
        try:
            self._shutdown(drain=False)
        except BaseException:
            pass

    def __len__(self) -> int:
        return self._rows

    @property
    def series_length(self) -> int:
        return self._series_length

    # ------------------------------------------------------------------
    # queries (QueryEngine-compatible surface)
    # ------------------------------------------------------------------

    def search(self, query, *, k: int | None = None,
               epsilon: float | None = None, should_abort=None,
               deadline_s: float | None = None):
        """The global *k* best within *epsilon*, merged across shards.

        Same contract as :meth:`QueryEngine.search`; *deadline_s*
        (absolute, :data:`~repro.obs.clock.monotonic_s` time)
        additionally ships to every worker as remaining time.

        Holds the router lock for the whole send/gather/merge: the
        pipes carry one conversation at a time, so a concurrent caller
        could otherwise consume this request's replies (dropping them
        via the ``req_id`` filter) and leave this thread blocked in the
        gather loop forever.  The serving layer may call this from
        several dispatcher threads at once; they queue here and the
        shard pool stays the only real parallelism.
        """
        k, epsilon = check_search(k, epsilon)
        query = self._normalise_query(query)
        with self._lock:
            return self._fanout(query, k, epsilon, should_abort, deadline_s)

    def range_search(self, query, epsilon: float, *, should_abort=None,
                     deadline_s: float | None = None):
        """All series within *epsilon*: :meth:`search`."""
        return self.search(query, epsilon=epsilon, should_abort=should_abort,
                           deadline_s=deadline_s)

    def knn(self, query, k: int, *, should_abort=None,
            deadline_s: float | None = None):
        """The global *k* nearest: :meth:`search`."""
        return self.search(query, k=k, should_abort=should_abort,
                           deadline_s=deadline_s)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _normalise_query(self, query) -> np.ndarray:
        if self.normal_form is not None:
            return self.normal_form.apply(query)
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self._series_length,):
            raise ValueError(
                f"query must have length {self._series_length} "
                "(router built without a normal form)"
            )
        return q

    def _fanout(self, query, k, epsilon, should_abort, deadline_s):
        """Send one request to every shard, gather, merge exactly
        (under the router lock)."""
        if self._closed:
            raise RouterClosed("router is closed")
        kind = query_kind(k)
        started = monotonic_s()
        req_id = next(self._req_ids)
        collect = self.obs.enabled
        tracing = collect and self.obs.tracer.enabled
        remaining = None
        if deadline_s is not None:
            remaining = deadline_s - started
            if remaining <= 0:
                raise QueryAborted(phase="shard:fanout")
        # The sharded trace mirrors the single-engine taxonomy: one
        # ``query`` root per fan-out with a real ``shard:fanout``
        # child spanning send-to-gather, under which every worker's
        # shipped spans are grafted — so the merged JSONL reads
        # ``query → shard:fanout → shard:query →
        # stage:*/refine/kernel`` as one connected tree.
        with self.obs.span(
            "query", kind=kind, sharded=True, shards=self.n_shards,
            band=self.band,
        ) as qspan:
            with self.obs.span("shard:fanout", kind=kind,
                               shards=self.n_shards) as fspan:
                trace_ctx = None
                if tracing:
                    trace_ctx = (fspan.trace_id, fspan.span_id)
                per_shard = self._dispatch(
                    query, k, epsilon, req_id, collect, trace_ctx,
                    remaining, should_abort, deadline_s,
                )
            results = self._merge_results(k, [r[2] for r in per_shard])
            stats = self._merge_stats([r[3] for r in per_shard],
                                      monotonic_s() - started)
            if collect:
                derived = self._record_fanout(kind, per_shard, stats)
                # The handle outlives ``__exit__``; attributes stay
                # writable until the root closes and the trace ships
                # (same late-set trick the engine's stage spans use).
                fspan.set(**derived)
                qspan.set(**_query_span_attrs(stats))
        return results, stats

    def _dispatch(self, query, k, epsilon, req_id, collect, trace_ctx,
                  remaining, should_abort, deadline_s) -> list:
        """Send one request to every shard and gather the replies.

        Returns the per-shard ``ok`` replies in shard order.  Worker
        span payloads (``ok`` *and* ``aborted`` replies) are grafted
        into the open trace as they arrive, re-anchored from the
        worker's ``perf_counter`` epoch onto ours: the worker reports
        the time it *received* the request on its own clock, we know
        when we *sent* it on ours, and the difference is the clock
        offset to within one pipe hop — the same trick the deadline's
        remaining-seconds encoding uses.
        """

        def message():
            # Rebuilt per send so a retry after a crash ships the
            # deadline still remaining, not the stale original.
            left = remaining
            if deadline_s is not None:
                left = max(0.0, deadline_s - monotonic_s())
            return ("req", req_id, query, k, epsilon, left, collect,
                    trace_ctx)

        retried: set[int] = set()
        for i in range(self.n_shards):
            self._send(i, message, retried)
        replies: dict[int, tuple] = {}
        while len(replies) < self.n_shards:
            if should_abort is not None and should_abort():
                raise QueryAborted(phase="shard:fanout")
            if deadline_s is not None and monotonic_s() > deadline_s:
                raise QueryAborted(phase="shard:fanout")
            pending = {s.conn: s for s in self._shards
                       if s.spec.shard not in replies}
            for conn in _wait_ready(list(pending), timeout=_POLL_S):
                shard = pending[conn]
                i = shard.spec.shard
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    self._respawn(i)
                    self._retry(i, message, retried)
                    continue
                if reply[0] == "pong" or reply[1] != req_id:
                    continue  # stale chatter from an abandoned request
                shard.last_reply_s = monotonic_s()
                if reply[0] == "aborted":
                    shard.requests += 1
                    # Graft before raising: the aborted worker's spans
                    # are all closed (its context managers unwound) and
                    # belong in the trace of the query that died here.
                    self._graft(shard, reply, 3)
                    raise QueryAborted(phase=reply[2])
                if reply[0] == "error":
                    shard.requests += 1
                    raise ShardError(
                        f"shard {i} failed: {reply[2]}: {reply[3]}"
                    )
                shard.requests += 1
                self._graft(shard, reply, 5)
                replies[i] = reply
        return [replies[i] for i in range(self.n_shards)]

    def _graft(self, shard: _Shard, reply: tuple, at: int) -> None:
        """Adopt a reply's span payload (at tuple index *at*, with the
        worker's receive timestamp right after it) into the open trace."""
        if len(reply) <= at + 1 or not reply[at]:
            return
        sent_s = shard.last_sent_s
        if sent_s is None:  # pragma: no cover - sends always stamp
            return
        self.obs.tracer.adopt(reply[at],
                              clock_offset_s=sent_s - reply[at + 1])

    def _send(self, i: int, message, retried: set) -> None:
        """Send to shard *i*, respawning once if its pipe is dead."""
        shard = self._shards[i]
        try:
            shard.last_sent_s = monotonic_s()
            shard.conn.send(message())
        except (OSError, BrokenPipeError):
            self._respawn(i)
            self._retry(i, message, retried)

    def _retry(self, i: int, message, retried: set) -> None:
        """Resend after a crash — at most once per shard per request."""
        if i in retried:
            raise ShardError(
                f"shard {i} crashed twice while serving one request"
            )
        retried.add(i)
        shard = self._shards[i]
        try:
            shard.last_sent_s = monotonic_s()
            shard.conn.send(message())
        except (OSError, BrokenPipeError):  # pragma: no cover
            raise ShardError(
                f"shard {i} crashed twice while serving one request"
            ) from None

    def _respawn(self, i: int) -> None:
        """Replace a dead worker and bump the epoch."""
        shard = self._shards[i]
        shard.conn.close()
        shard.process.join(timeout=5.0)
        self.obs.record_shard_lifecycle("crash", i)
        # Bump *before* spawning so the replacement worker is born into
        # the new epoch — its span-id prefix and health rows must never
        # collide with the dead worker's.
        self.epoch += 1
        replacement = self._spawn(shard.spec, event="respawn")
        replacement.respawns = shard.respawns + 1
        self._shards[i] = replacement

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def ping(self, *, timeout_s: float = 1.0) -> list[ShardHealth]:
        """Probe every worker and return a fresh health snapshot.

        Sends the health-probe ping (``("ping", id, True)``) to each
        live pipe, measures the round-trip time, and folds the reply's
        RSS / served-count into the shard's health fields.  A worker
        that does not answer within *timeout_s* keeps its stale RTT and
        shows up ``alive=False`` if its process is gone — the probe
        never respawns (that stays a query-path decision, where the
        retry bookkeeping lives).

        Takes the router lock: pings share the pipes with fan-outs.
        Between fan-outs the pipes are quiet, so any reply that is not
        our pong is stale chatter from an abandoned request and is
        dropped exactly as the gather loop would drop it.
        """
        with self._lock:
            if not self._closed:
                self._ping_locked(timeout_s)
            snapshot = self._health_rows()
        for row in snapshot:
            self.obs.record_shard_health(row)
        return snapshot

    def _ping_locked(self, timeout_s: float) -> None:
        ping_id = f"health-{next(self._req_ids)}"
        sent: dict[int, float] = {}
        for shard in self._shards:
            try:
                sent[shard.spec.shard] = monotonic_s()
                shard.conn.send(("ping", ping_id, True))
            except (OSError, BrokenPipeError):
                sent.pop(shard.spec.shard, None)  # dead pipe: skip it
        deadline = monotonic_s() + timeout_s
        while sent and monotonic_s() < deadline:
            pending = {s.conn: s for s in self._shards
                       if s.spec.shard in sent}
            if not pending:  # pragma: no cover - defensive
                break
            for conn in _wait_ready(list(pending), timeout=_POLL_S):
                shard = pending[conn]
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    sent.pop(shard.spec.shard, None)
                    continue
                if (reply[0] != "pong" or reply[1] != ping_id
                        or len(reply) < 3):
                    continue  # stale chatter from an abandoned request
                now = monotonic_s()
                shard.last_rtt_s = now - sent.pop(shard.spec.shard)
                shard.last_reply_s = now
                health = reply[2]
                shard.rss_bytes = health.get("rss_bytes")

    def _health_rows(self) -> list[ShardHealth]:
        now = monotonic_s()
        rows = []
        for shard in self._shards:
            last = shard.last_reply_s
            rows.append(ShardHealth(
                shard=shard.spec.shard,
                epoch=shard.epoch,
                pid=shard.process.pid,
                alive=shard.process.is_alive(),
                respawns=shard.respawns,
                requests=shard.requests,
                uptime_s=now - shard.spawned_s,
                last_reply_age_s=None if last is None else now - last,
                ping_rtt_s=shard.last_rtt_s,
                rss_bytes=shard.rss_bytes,
            ))
        return rows

    def health_snapshot(self) -> list[ShardHealth]:
        """The fleet's health rows from parent-side state alone.

        Lock-free by design: every field it reads is written atomically
        by the serving path (or a ping), and a health row is advisory —
        so a snapshot never queues behind a long fan-out.  Use
        :meth:`ping` to refresh RTT/RSS first.
        """
        return self._health_rows()

    @staticmethod
    def _merge_results(k, per_shard_results):
        """Merge per-shard answers into the exact global answer.

        Each shard's answer is in (distance, block row) order and the
        shards hold consecutive row blocks, so a stable sort by
        distance over the answers in shard order is the engine's
        (distance, corpus row) order; cutting at *k* (when set) keeps
        the global *k* best.
        """
        rows = [pair for results in per_shard_results for pair in results]
        rows.sort(key=lambda pair: pair[1])
        return rows[:k]

    def _merge_stats(self, stats_dicts, wall_s: float) -> CascadeStats:
        """Re-merge per-shard stats with ``+``.

        Candidate/pruning counters are additive across a partition, so
        the merged record reads like the single-engine one; the wall
        clock is the fan-out's (per-shard times overlap), with the
        summed per-shard time surviving as ``cpu_time_s``.
        """
        merged = CascadeStats.from_dict(stats_dicts[0])
        for payload in stats_dicts[1:]:
            merged = merged + CascadeStats.from_dict(payload)
        merged.total_time_s = wall_s
        return merged

    def _record_fanout(self, kind, per_shard, stats) -> dict:
        kernel = KernelStats()
        kernel_seen = False
        for reply in per_shard:
            delta = reply[4]
            if delta is not None:
                kernel_seen = True
                kernel.calls += delta[0]
                kernel.cells += delta[1]
                kernel.compacted_columns += delta[2]
        if kernel_seen:
            self.obs.record_kernel(kernel)
        return self.obs.record_shard_fanout(
            kind, self.n_shards, stats.total_time_s,
            [reply[3]["cpu_time_s"] for reply in per_shard],
        )


class IndexShardManager:
    """Keeps a :class:`ShardRouter` in step with an index's generation.

    The serving layer calls :meth:`router` once per execution (its
    ``engine_fn``): when the index's swap counter moved since the
    last build, the old router is drained and a fresh one is built
    over the new corpus, with the epoch carried forward past the old
    router's — so the composite cache version ``(generation, epoch)``
    from :meth:`version` can never repeat across a rebuild *or* a
    respawn.

    All methods are thread-safe: a manager lock serializes rebuild
    decisions, so two threads observing the same stale ``_built_at``
    cannot both rebuild — one builds, the other reuses the fresh
    fleet — and a rebuild can never close a router out from under a
    concurrent :meth:`version` read or regress the epoch.  (The router
    handed out is itself thread-safe; a rebuild only happens between
    executions, when the scheduler calls back in.)
    """

    def __init__(self, index, *, shards, mp_context=None,
                 obs=None) -> None:
        self._index = index
        self._shards = int(shards)
        self._mp_context = mp_context
        self._obs = obs
        # RLock: version() reads epoch under the same lock.
        self._lock = threading.RLock()
        self._router: ShardRouter | None = None
        self._built_at: int | None = None
        self._next_epoch = 0

    def router(self) -> ShardRouter:
        """The current router, rebuilt if the index swapped generation."""
        with self._lock:
            # Read before the build: a swap landing during it leaves
            # _built_at behind, so the next call rebuilds again.
            generation = self._index.generation
            if self._router is None or self._built_at != generation:
                if self._router is not None:
                    self._next_epoch = self._router.epoch + 1
                    self._router.close()
                self._router = ShardRouter.from_index(
                    self._index, shards=self._shards,
                    mp_context=self._mp_context, obs=self._obs,
                    epoch_start=self._next_epoch,
                )
                self._built_at = generation
            return self._router

    @property
    def epoch(self) -> int:
        with self._lock:
            if self._router is not None:
                return self._router.epoch
            return self._next_epoch

    def version(self) -> tuple:
        """Composite cache version: ``(index generation, router epoch)``."""
        with self._lock:
            return (self._index.generation, self.epoch)

    def prewarm(self) -> ShardRouter:
        """Rebuild the fleet now if the index swapped (ingest path).

        The ingest coordinator calls this right after a generation
        swap so the respawn cost is paid on the rebuild thread, not by
        the first served request.  Safe to call concurrently with
        serving: :meth:`router`'s lock serializes the rebuild, and
        closing the old router blocks until its in-flight fan-out
        drains.  A dispatcher that already held the old router gets
        :class:`RouterClosed` and is retried once by the serve layer.
        Exactly one epoch bump per swap — a no-op when the fleet
        is already current.
        """
        return self.router()

    def current_router(self) -> ShardRouter | None:
        """The live router **without** triggering a rebuild — what the
        health paths use, so a heartbeat can never spawn a fleet."""
        with self._lock:
            return self._router

    def ping(self, *, timeout_s: float = 1.0) -> list:
        """Probe the current fleet (empty when none is built yet)."""
        router = self.current_router()
        return [] if router is None else router.ping(timeout_s=timeout_s)

    def health_snapshot(self) -> list:
        """The current fleet's health rows (empty when none is built)."""
        router = self.current_router()
        return [] if router is None else router.health_snapshot()

    def close(self) -> None:
        with self._lock:
            if self._router is not None:
                self._router.close()
                self._router = None

""":class:`QBHService` — the concurrent query-serving facade.

Sits above :class:`~repro.engine.QueryEngine` /
:class:`~repro.index.gemini.WarpingIndex` /
:class:`~repro.qbh.QueryByHummingSystem` and below the CLI, wiring the
serving pieces together:

* submissions pass **admission control**
  (:class:`~repro.serve.admission.AdmissionPolicy`) — full queues shed
  with a retry hint instead of waiting forever;
* a **result cache** (:class:`~repro.serve.cache.ResultCache`) answers
  byte-identical repeats instantly, with versioned invalidation keyed
  to the index mutation counter;
* admitted requests wait in the **request scheduler**'s FIFO queue
  (:class:`~repro.serve.scheduler.RequestScheduler`); its one
  dispatcher answers them oldest first, coalescing queued duplicates
  into one execution;
* execution runs on the engine with **cooperative deadlines**: the
  engine's ``should_abort`` checkpoints turn a lapsed deadline into a
  ``deadline_exceeded`` outcome, never a partial answer;
* everything is accounted: ``serve:request``/``serve:batch`` spans and
  ``serve.*`` metrics through :mod:`repro.obs`, plus a
  :meth:`QBHService.saturation` snapshot for load tests.

Answers are exact and identical to direct engine calls — the serving
layer only changes *when* and *how often* the engine runs, never what
it computes.  Synchronous (:meth:`range_search` / :meth:`knn`) and
asynchronous (:meth:`submit` returning a
:class:`~repro.serve.scheduler.ServeFuture`) submission share one path.
"""

from __future__ import annotations

import threading

import numpy as np

from ..engine.cascade import search_params
from ..engine.errors import QueryAborted, RouterClosed
from ..obs import OBS_DISABLED
from ..obs.clock import monotonic_s
from .admission import AdmissionPolicy, RetryPolicy, submit_with_retry
from .cache import ResultCache, request_fingerprint
from .scheduler import (
    RequestScheduler,
    ServeFuture,
    ServeOutcome,
    ServeRequest,
)

__all__ = ["QBHService"]


class QBHService:
    """Concurrent serving over one query engine.

    Parameters
    ----------
    engine_fn:
        Zero-argument callable returning the engine to execute on.
        Called per execution, so an index that rebuilds its engine after a
        mutation is always served with the fresh one.
    version_fn:
        Zero-argument callable returning the index version (a
        monotonic mutation counter).  Cache entries are keyed by it;
        ``None`` pins version 0 (an immutable corpus).
    normalize:
        Optional per-query transform applied at *execution* time (the
        index's normal form).  Fingerprints are taken over the raw
        query bytes, before this runs.
    admission:
        An :class:`~repro.serve.admission.AdmissionPolicy`; ``None``
        uses the defaults (queue bound 64, no implicit deadline).
    retry:
        A :class:`~repro.serve.admission.RetryPolicy` applied by the
        *synchronous* methods when a submission is shed; ``None``
        disables client-side retry (the shed outcome is returned).
    cache_size / cache_ttl_s:
        Result-cache dials; ``cache_size=0`` disables caching.
    health_interval_s:
        With a service-owned shard fleet (``shards=`` on the
        classmethod constructors), start a
        :class:`~repro.shard.ShardHealthMonitor` heartbeat pinging the
        workers every this-many seconds, keeping the
        ``shard.health.*`` gauges and :meth:`saturation`'s ``shards``
        section fresh even when no queries flow.  ``None`` (default)
        disables the heartbeat; the snapshot then reflects
        serving-path side effects only.
    shadow_fraction:
        Shadow-scoring sample rate in ``[0, 1]``: this fraction of
        completed ``ok`` requests (cache hits included — a stale cache
        is exactly what shadowing exists to catch) is re-answered by a
        direct, uncoalesced, deadline-free engine call and compared
        result-for-result, feeding the ``quality.shadow.*`` counters
        and the online ``quality.shadow.agreement`` gauge.  The
        re-check runs on the completing thread, so keep it small in
        production (0.01 ≈ one request in a hundred); 0.0 (default)
        disables shadowing.
    obs:
        Observability facade (default disabled).

    Prefer the classmethod constructors:
    :meth:`from_engine`, :meth:`from_index`, :meth:`from_system`.
    """

    def __init__(self, engine_fn, *, version_fn=None, normalize=None,
                 admission: AdmissionPolicy | None = None,
                 retry: RetryPolicy | None = None,
                 cache_size: int = 1024, cache_ttl_s: float | None = None,
                 health_interval_s: float | None = None,
                 shadow_fraction: float = 0.0, obs=None) -> None:
        self._engine_fn = engine_fn
        self._version_fn = version_fn if version_fn is not None else lambda: 0
        self._normalize = normalize
        self.obs = OBS_DISABLED if obs is None else obs
        self.admission = admission if admission is not None else (
            AdmissionPolicy()
        )
        self.retry = retry
        self.cache = (ResultCache(cache_size, cache_ttl_s)
                      if cache_size > 0 else None)
        self._counters_lock = threading.Lock()
        self._counters = {
            "submitted": 0, "completed": 0, "ok": 0, "shed": 0,
            "deadline_exceeded": 0, "error": 0, "shutdown": 0,
            "cache_hits": 0, "executed": 0,
        }
        self._closed = False
        if not 0.0 <= shadow_fraction <= 1.0:
            raise ValueError(
                f"shadow_fraction must be in [0, 1], got {shadow_fraction}")
        if shadow_fraction > 0.0:
            from ..obs.quality import ShadowScorer

            self.shadow = ShadowScorer(
                self._shadow_exact, fraction=shadow_fraction, obs=self.obs,
            )
        else:
            self.shadow = None
        # A shard router/manager built *for* this service by a
        # classmethod constructor; closed with it (poison-pill drain).
        self._owned_shards = None
        # An ingest coordinator attached via attach_ingest; closed with
        # the service (drains staged melodies into one last rebuild).
        self._ingest = None
        self.health_interval_s = health_interval_s
        self._health_monitor = None
        self.scheduler = RequestScheduler(
            self._execute,
            max_queue_depth=self.admission.max_queue_depth,
            on_complete=self._on_complete,
            obs=self.obs,
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_engine(cls, engine, *, shards: int | None = None,
                    mp_context=None, **kwargs) -> "QBHService":
        """Serve one fixed :class:`~repro.engine.QueryEngine`.

        The engine's corpus is immutable from the service's point of
        view, so the cache version is pinned — except for the shard
        epoch when *shards* > 1 puts a
        :class:`~repro.shard.ShardRouter` (owned by the service, closed
        with it) in front: worker respawns bump the epoch, which keys
        the cache so no cached answer can outlive the worker set that
        computed it.
        """
        if shards is not None and shards > 1:
            from ..shard import ShardRouter

            router = ShardRouter.from_engine(
                engine, shards=shards, mp_context=mp_context,
                obs=kwargs.get("obs"),
            )
            service = cls(lambda: router,
                          version_fn=lambda: (0, router.epoch), **kwargs)
            service._owned_shards = router
            service._start_health_monitor()
            return service
        return cls(lambda: engine, **kwargs)

    @classmethod
    def from_index(cls, index, *, shards: int | None = None,
                   mp_context=None, **kwargs) -> "QBHService":
        """Serve a :class:`~repro.index.gemini.WarpingIndex`.

        Queries run through the index's cascade engine; the cache is
        versioned by ``index.mutations``, so every ``insert`` /
        ``remove`` invalidates stale results automatically.  Requests
        carry the *raw* query (that is what gets fingerprinted); the
        index's normal form is applied at execution time, exactly as
        ``index.cascade_*_query`` would.

        With *shards* > 1, queries run on a corpus partitioned across
        worker processes behind an :class:`~repro.shard.IndexShardManager`:
        mutations rebuild the shard set, and the cache version becomes
        the composite ``(mutations, epoch)`` so neither a mutation nor a
        worker respawn can serve a stale cached answer.
        """
        kwargs.setdefault("obs", index.obs)
        if shards is not None and shards > 1:
            from ..shard import IndexShardManager

            manager = IndexShardManager(
                index, shards=shards, mp_context=mp_context,
                obs=kwargs.get("obs"),
            )
            # Build the fleet now, before the scheduler's thread starts:
            # a defaulted start method can still fork here (cheap),
            # whereas the first query would build it on the dispatcher
            # thread, where only spawn is safe.
            manager.router()
            service = cls(
                manager.router,
                version_fn=manager.version,
                normalize=index.normal_form.apply,
                **kwargs,
            )
            service._owned_shards = manager
            service._start_health_monitor()
            return service
        return cls(
            lambda: index.engine(),
            version_fn=lambda: index.mutations,
            normalize=index.normal_form.apply,
            **kwargs,
        )

    @classmethod
    def from_system(cls, system, **kwargs) -> "QBHService":
        """Serve a :class:`~repro.qbh.QueryByHummingSystem`'s index
        (``shards=`` and every other knob pass through to
        :meth:`from_index`)."""
        return cls.from_index(system.index, **kwargs)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, kind: str, query, param, *,
               deadline_s: float | None = None) -> ServeFuture:
        """Submit one request; returns a future resolving to its outcome.

        *kind* is ``"range"`` (param = epsilon) or ``"knn"`` (param =
        k); *deadline_s* is relative seconds from now (``None`` uses
        the admission policy's default).  The future resolves to a
        :class:`~repro.serve.scheduler.ServeOutcome` — immediately for
        cache hits and shed requests, after dispatch otherwise.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        query = np.ascontiguousarray(query, dtype=np.float64)
        fingerprint = request_fingerprint(query, kind, param)
        request = ServeRequest(
            kind=kind, query=query, param=param, fingerprint=fingerprint,
            deadline_s=self.admission.resolve_deadline(deadline_s),
        )
        with self._counters_lock:
            self._counters["submitted"] += 1

        if self.cache is not None:
            cached = self.cache.get(fingerprint, self._version_fn())
            if cached is not None:
                self.obs.record_serve_cache("hit")
                self._finish_inline(request, ServeOutcome(
                    status="ok", results=cached, from_cache=True,
                ))
                return request.future
            self.obs.record_serve_cache("miss")

        if (not self.admission.admits(self.scheduler.depth)
                or not self.scheduler.submit(request)):
            self._finish_inline(request, ServeOutcome(
                status="shed",
                retry_after_s=self.admission.retry_after_s,
            ))
        return request.future

    def range_search(self, query, epsilon: float, *,
                     deadline_s: float | None = None,
                     timeout: float | None = None) -> ServeOutcome:
        """Synchronous ε-range request (retrying sheds per policy)."""
        return self._sync("range", query, float(epsilon),
                          deadline_s=deadline_s, timeout=timeout)

    def knn(self, query, k: int, *, deadline_s: float | None = None,
            timeout: float | None = None) -> ServeOutcome:
        """Synchronous k-NN request (retrying sheds per policy)."""
        return self._sync("knn", query, int(k),
                          deadline_s=deadline_s, timeout=timeout)

    def _sync(self, kind, query, param, *, deadline_s, timeout):
        def once():
            return self.submit(
                kind, query, param, deadline_s=deadline_s
            ).result(timeout)

        if self.retry is None:
            return once()
        return submit_with_retry(once, self.retry)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Finish every queued request, then stop dispatching."""
        self._closed = True
        self.scheduler.close(drain=True)

    def close(self, *, drain: bool = True) -> None:
        """Shut the service down (``drain=False`` sheds the queue).

        A shard router/manager built by :meth:`from_engine` /
        :meth:`from_index` is closed here too — poison-pill + drain,
        after the scheduler stops feeding it.
        """
        self._closed = True
        if self._ingest is not None:
            # Stop ingest first: a rebuild racing shutdown would swap
            # a generation into an index nothing serves any more.  The
            # coordinator drains staged melodies into one last rebuild
            # before the serving machinery comes down.
            self._ingest.close(drain=drain)
            self._ingest = None
        if self._health_monitor is not None:
            # Stop the heartbeat before the fleet: a ping racing the
            # poison-pill drain would only see a closed router.
            self._health_monitor.close()
            self._health_monitor = None
        self.scheduler.close(drain=drain)
        if self._owned_shards is not None:
            self._owned_shards.close()

    @property
    def shard_manager(self):
        """The service-owned shard fleet, or ``None`` when unsharded.

        An ingest coordinator passes this as its ``shard_manager`` so
        each generation swap respawns the fleet exactly once.
        """
        return self._owned_shards

    def attach_ingest(self, coordinator) -> None:
        """Adopt an :class:`~repro.ingest.IngestCoordinator`.

        The coordinator's lifecycle becomes the service's: it is
        started here if it is not running yet, its snapshot appears
        under ``"ingest"`` in :meth:`saturation`, and :meth:`close`
        drains and stops it before the serving machinery comes down.
        """
        if self._ingest is not None:
            raise RuntimeError("an ingest coordinator is already attached")
        self._ingest = coordinator
        if not coordinator.running:
            coordinator.start()

    def __enter__(self) -> "QBHService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _start_health_monitor(self) -> None:
        """Start the shard-health heartbeat when configured and owned.

        Only a fleet the service *owns* is monitored — pinging a
        caller-managed router from a background thread would contend
        with whatever schedule the caller runs it on.
        """
        if self._owned_shards is None or self.health_interval_s is None:
            return
        from ..shard import ShardHealthMonitor

        self._health_monitor = ShardHealthMonitor(
            self._owned_shards, interval_s=self.health_interval_s
        ).start()

    def _finish_inline(self, request: ServeRequest,
                       outcome: ServeOutcome) -> None:
        """Resolve a request that never reached the scheduler."""
        request.future.resolve(outcome)
        self._on_complete(request, outcome)

    def _on_complete(self, request: ServeRequest,
                     outcome: ServeOutcome) -> None:
        with self._counters_lock:
            self._counters["completed"] += 1
            self._counters[outcome.status] = (
                self._counters.get(outcome.status, 0) + 1
            )
            if outcome.from_cache:
                self._counters["cache_hits"] += 1
        self.obs.record_serve_request(
            request.kind, outcome.status,
            outcome.queue_wait_s, outcome.service_time_s,
            from_cache=outcome.from_cache,
        )
        if (self.shadow is not None and outcome.status == "ok"
                and outcome.results is not None):
            try:
                self.shadow.maybe_check(
                    request.kind, request.query, request.param,
                    outcome.results,
                )
            except Exception:
                # The probe is best-effort: a shadow re-check must
                # never turn a served answer into a failure.
                pass

    def _shadow_exact(self, kind, query, param):
        """Ground truth for the shadow scorer: one direct engine call,
        uncoalesced, uncached, and without a deadline."""
        q = query if self._normalize is None else self._normalize(query)
        results, _ = self._engine_fn().search(q, **search_params(kind, param))
        return tuple((item, float(dist)) for item, dist in results)

    def _execute(self, request: ServeRequest) -> ServeOutcome:
        """Answer one request on the engine (scheduler hook).

        The cache is re-probed here — a duplicate may have populated
        it while this request waited in the queue — and a computed
        answer is stored under the version captured *before* the
        engine ran, so a concurrent index mutation can only waste the
        entry, never let it serve a stale answer.
        """
        engine = self._engine_fn()
        version = self._version_fn()
        if self.cache is not None:
            cached = self.cache.get(request.fingerprint, version)
            if cached is not None:
                self.obs.record_serve_cache("hit")
                return ServeOutcome(status="ok", results=cached,
                                    from_cache=True)
        with self._counters_lock:
            self._counters["executed"] += 1
        params = search_params(request.kind, request.param)
        deadline = request.group_deadline_s
        query = (request.query if self._normalize is None
                 else self._normalize(request.query))
        for retried in (False, True):
            # A shard router takes the deadline itself (a closure
            # cannot cross a process boundary; the router re-anchors
            # it in every worker and still polls it parent-side
            # between replies).
            if getattr(engine, "is_sharded", False):
                kwargs = {"deadline_s": deadline}
            else:
                kwargs = {"should_abort": (
                    None if deadline is None
                    else (lambda: monotonic_s() > deadline)
                )}
            try:
                results, _ = engine.search(query, **params, **kwargs)
            except RouterClosed as exc:
                # A generation swap prewarmed a fresh fleet and closed
                # the router this request had already fetched.  Benign
                # race: refetch and retry exactly once.
                if retried:
                    return ServeOutcome(
                        status="error",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                engine = self._engine_fn()
                version = self._version_fn()
                continue
            except QueryAborted:
                return ServeOutcome(status="deadline_exceeded")
            except Exception as exc:
                return ServeOutcome(
                    status="error", error=f"{type(exc).__name__}: {exc}",
                )
            results = tuple((item, float(dist)) for item, dist in results)
            if self.cache is not None:
                self.cache.put(request.fingerprint, version, results)
            return ServeOutcome(status="ok", results=results)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def saturation(self) -> dict:
        """A point-in-time snapshot of the service's load counters.

        Includes current queue depth and in-flight count, cumulative
        outcome counts, shed/deadline-miss rates, and the cache's own
        accounting — the numbers an operator watches to decide whether
        the service is keeping up.  A service-owned
        shard fleet contributes a ``"shards"`` list of per-worker
        health rows (see :class:`~repro.shard.health.ShardHealth`);
        RTT/RSS are as fresh as the last ping, so enable the
        ``health_interval_s`` heartbeat for live numbers.
        """
        with self._counters_lock:
            counters = dict(self._counters)
        completed = counters["completed"]
        snapshot = {
            "queue_depth": self.scheduler.depth,
            "inflight": self.scheduler.inflight,
            **counters,
            "shed_rate": counters["shed"] / completed if completed else 0.0,
            "deadline_miss_rate": (
                counters["deadline_exceeded"] / completed
                if completed else 0.0
            ),
            "cache_hit_rate": (
                counters["cache_hits"] / completed if completed else 0.0
            ),
        }
        if self.cache is not None:
            snapshot["cache"] = self.cache.stats.to_dict()
        if self.shadow is not None:
            snapshot["shadow"] = self.shadow.snapshot()
        if self._owned_shards is not None:
            snapshot["shards"] = [
                row.to_dict()
                for row in self._owned_shards.health_snapshot()
            ]
        if self._ingest is not None:
            snapshot["ingest"] = self._ingest.snapshot()
        return snapshot

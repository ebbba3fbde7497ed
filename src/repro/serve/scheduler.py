"""Micro-batching scheduler: a bounded queue that coalesces requests.

Concurrent callers submit single queries; the engine is at its best
serving *batches* (shared corpus matrices, one cache-warm pass per
group, deduplicated repeats answered once).  The scheduler bridges the
two with the classic dynamic micro-batching loop:

1. a dispatcher blocks on the bounded FIFO queue;
2. when a request arrives it becomes the **head**: the dispatcher
   lingers up to ``linger_s`` collecting *compatible* requests — same
   kind (range/knn) and same search parameter — closing the batch
   early when ``max_batch`` of them are waiting;
3. requests whose deadline already passed are resolved as
   ``deadline_exceeded`` without doing any work;
4. the surviving batch is deduplicated by query fingerprint and handed
   to the executor (one engine evaluation per *distinct* query —
   request coalescing, the big win under the QBH workload's repeated
   hums);
5. every request's future is resolved — duplicates share the computed
   answer — and a request whose deadline lapsed *during* execution
   still gets ``deadline_exceeded``, never a late result.

Fairness: batches always form around the **oldest waiting request**,
so an unpopular singleton is at worst one batch away from dispatch —
a hot query group can never starve it.

The scheduler knows nothing about engines or caches: execution is a
callable ``execute_batch(kind, param, requests) -> {fingerprint:
ServeOutcome}`` supplied by :class:`~repro.serve.service.QBHService`,
which keeps this module testable with stub executors.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from ..obs import OBS_DISABLED
from ..obs.clock import monotonic_s

__all__ = ["ServeOutcome", "ServeRequest", "ServeFuture",
           "MicroBatchScheduler"]

#: Outcome statuses a request can resolve to.
OUTCOME_STATUSES = ("ok", "shed", "deadline_exceeded", "error", "shutdown")


@dataclass
class ServeOutcome:
    """How one serving request ended.

    ``status`` is one of :data:`OUTCOME_STATUSES`; ``results`` is the
    exact ``(id, distance)`` sequence for ``ok`` and ``None``
    otherwise — a missed deadline or an error never carries a partial
    answer.  ``results`` may be shared between coalesced requests and
    cache hits: treat it as read-only.
    """

    status: str
    results: tuple | None = None
    queue_wait_s: float = 0.0
    service_time_s: float = 0.0
    from_cache: bool = False
    batch_size: int = 0
    retry_after_s: float | None = None
    error: str | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True when the request produced results."""
        return self.status == "ok"

    def to_dict(self) -> dict:
        """The outcome as a JSON-ready dict (results as pair lists)."""
        return {
            "status": self.status,
            "results": (None if self.results is None
                        else [[item, float(dist)]
                              for item, dist in self.results]),
            "queue_wait_s": self.queue_wait_s,
            "service_time_s": self.service_time_s,
            "from_cache": self.from_cache,
            "batch_size": self.batch_size,
            "retry_after_s": self.retry_after_s,
            "error": self.error,
            "attempts": self.attempts,
        }


class ServeFuture:
    """A one-shot, thread-safe handle to a request's eventual outcome."""

    __slots__ = ("_event", "_outcome")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._outcome: ServeOutcome | None = None

    def resolve(self, outcome: ServeOutcome) -> None:
        """Deliver the outcome (first resolution wins, rest ignored)."""
        if not self._event.is_set():
            self._outcome = outcome
            self._event.set()

    def done(self) -> bool:
        """Whether an outcome has been delivered."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> ServeOutcome:
        """Block until the outcome arrives (``TimeoutError`` past
        *timeout* seconds)."""
        if not self._event.wait(timeout):
            raise TimeoutError("request outcome not available in time")
        assert self._outcome is not None
        return self._outcome


@dataclass
class ServeRequest:
    """One queued query: what to run, for whom, and until when.

    ``deadline_s`` is *absolute* on the monotonic clock (``None`` = no
    deadline).  ``group_deadline_s`` is filled by the scheduler before
    execution with the latest deadline among the request's coalesced
    duplicates — the executor's cooperative-cancellation cutoff: work
    stops only once *no* requester can still use the answer.
    """

    kind: str
    query: object
    param: object
    fingerprint: str
    deadline_s: float | None = None
    submitted_s: float = field(default_factory=monotonic_s)
    future: ServeFuture = field(default_factory=ServeFuture)
    group_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("range", "knn"):
            raise ValueError(
                f"kind must be 'range' or 'knn', got {self.kind!r}"
            )

    @property
    def group_key(self) -> tuple:
        """Batching compatibility: same kind and search parameter."""
        return (self.kind, self.param)

    def expired(self, now: float) -> bool:
        """Whether the request's own deadline has passed."""
        return self.deadline_s is not None and now > self.deadline_s


class MicroBatchScheduler:
    """Bounded FIFO queue + dispatcher threads forming micro-batches.

    Parameters
    ----------
    execute_batch:
        ``(kind, param, requests) -> {fingerprint: ServeOutcome}`` run
        on a dispatcher thread with the deduplicated batch.  Outcomes
        are templates: the scheduler stamps per-request queue wait,
        batch size, and the post-execution deadline check on top.
    max_batch:
        Most requests dispatched per batch (before deduplication).
    linger_s:
        How long the dispatcher waits past the head request's arrival
        for compatible requests to accumulate.  The core
        latency/throughput dial: 0 disables batching delay entirely.
    dispatchers:
        Dispatcher thread count.  One (the default) strictly preserves
        batch FIFO order; more overlap execution of *different* batches.
    max_queue_depth:
        Bound on waiting requests; :meth:`submit` refuses past it.
    on_complete:
        Optional ``(request, outcome) -> None`` callback run for every
        resolved request (the service's metrics hook).
    obs:
        Observability facade for ``serve:batch`` spans and metrics.
    """

    def __init__(self, execute_batch, *, max_batch: int = 8,
                 linger_s: float = 0.002, dispatchers: int = 1,
                 max_queue_depth: int | None = None,
                 on_complete=None, obs=None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if linger_s < 0:
            raise ValueError(f"linger_s must be >= 0, got {linger_s}")
        if dispatchers < 1:
            raise ValueError(f"dispatchers must be >= 1, got {dispatchers}")
        self._execute_batch = execute_batch
        self.max_batch = max_batch
        self.linger_s = linger_s
        self.max_queue_depth = max_queue_depth
        self._on_complete = on_complete
        self.obs = OBS_DISABLED if obs is None else obs
        self._queue: deque[ServeRequest] = deque()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._drain = True
        self._inflight = 0
        self._threads = [
            threading.Thread(target=self._dispatch_loop,
                             name=f"serve-dispatch-{i}", daemon=True)
            for i in range(dispatchers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently waiting in the queue."""
        with self._lock:
            return len(self._queue)

    @property
    def inflight(self) -> int:
        """Requests currently inside a dispatched batch."""
        with self._lock:
            return self._inflight

    def submit(self, request: ServeRequest) -> bool:
        """Enqueue *request*; ``False`` when the queue is full/closed.

        A ``False`` return means the scheduler did nothing — the
        caller owns the shed outcome (and its retry hint).
        """
        with self._cond:
            if self._closed:
                return False
            if (self.max_queue_depth is not None
                    and len(self._queue) >= self.max_queue_depth):
                return False
            self._queue.append(request)
            self._cond.notify()
            return True

    def close(self, *, drain: bool = True) -> None:
        """Stop dispatching: drain the queue or shed it, then join.

        With *drain* (default) queued requests are still executed;
        otherwise they resolve immediately with status ``shutdown``.
        Idempotent; safe to call from any thread.
        """
        with self._cond:
            if self._closed:
                self._cond.notify_all()
            else:
                self._closed = True
                self._drain = drain
                self._cond.notify_all()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join()
        if threading.current_thread() not in self._threads:
            # Every dispatcher has exited, so nothing calls these again.
            # They are the owner's bound methods: kept, scheduler and
            # owner form a reference cycle that strands the owner's
            # index and memory maps until the cyclic collector runs.
            self._execute_batch = self._on_complete = None

    # ------------------------------------------------------------------
    # dispatcher side
    # ------------------------------------------------------------------

    def _collect_batch(self) -> list[ServeRequest] | None:
        """Block for a head request, linger, and cut one batch.

        Returns ``None`` exactly once the scheduler is closed and the
        queue is empty (dispatcher exit signal).  Holding the lock is
        confined to queue surgery; execution — and every completion
        callback — happens outside it.
        """
        while True:
            shed: list[ServeRequest] = []
            batch: list[ServeRequest] = []
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return None
                if self._closed and not self._drain:
                    shed = list(self._queue)
                    self._queue.clear()
                else:
                    head = self._queue[0]
                    key = head.group_key
                    cutoff = head.submitted_s + self.linger_s
                    while not self._closed:
                        matching = sum(
                            1 for r in self._queue if r.group_key == key
                        )
                        if matching >= self.max_batch:
                            break
                        remaining = cutoff - monotonic_s()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                        if not self._queue or self._queue[0] is not head:
                            break  # another dispatcher took the head
                    kept: list[ServeRequest] = []
                    while self._queue and len(batch) < self.max_batch:
                        request = self._queue.popleft()
                        if request.group_key == key:
                            batch.append(request)
                        else:
                            kept.append(request)
                    self._queue.extendleft(reversed(kept))
                    if batch:
                        self._inflight += len(batch)
            for request in shed:
                self._resolve(request, ServeOutcome(status="shutdown"))
            if batch:
                return batch

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            try:
                self._run_batch(batch)
            finally:
                with self._lock:
                    self._inflight -= len(batch)

    def _resolve(self, request: ServeRequest, outcome: ServeOutcome) -> None:
        request.future.resolve(outcome)
        if self._on_complete is not None:
            self._on_complete(request, outcome)

    def _run_batch(self, batch: list[ServeRequest]) -> None:
        kind, param = batch[0].group_key
        now = monotonic_s()
        live: list[ServeRequest] = []
        for request in batch:
            if request.expired(now):
                self._resolve(request, ServeOutcome(
                    status="deadline_exceeded",
                    queue_wait_s=now - request.submitted_s,
                ))
            else:
                live.append(request)
        if not live:
            return

        # Coalesce: one execution per distinct fingerprint; the
        # representative carries the group's *latest* deadline so the
        # executor only aborts once every duplicate has expired.
        groups: OrderedDict[str, list[ServeRequest]] = OrderedDict()
        for request in live:
            groups.setdefault(request.fingerprint, []).append(request)
        representatives = []
        for members in groups.values():
            rep = members[0]
            deadlines = [m.deadline_s for m in members]
            rep.group_deadline_s = (
                None if any(d is None for d in deadlines)
                else max(deadlines)
            )
            representatives.append(rep)

        started = monotonic_s()
        try:
            outcomes = self._execute_batch(kind, param, representatives)
        except Exception as exc:  # executor bug: fail the batch loudly
            outcomes = {
                rep.fingerprint: ServeOutcome(
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
                for rep in representatives
            }
        elapsed = monotonic_s() - started

        done = monotonic_s()
        for fingerprint, members in groups.items():
            template = outcomes.get(fingerprint) or ServeOutcome(
                status="error", error="executor returned no outcome"
            )
            for request in members:
                if template.ok and request.expired(done):
                    # The answer exists but arrived too late for this
                    # requester: a deadline violation must never be
                    # returned as a result.
                    outcome = ServeOutcome(
                        status="deadline_exceeded",
                        queue_wait_s=started - request.submitted_s,
                        service_time_s=elapsed,
                        batch_size=len(live),
                    )
                else:
                    outcome = ServeOutcome(
                        status=template.status,
                        results=template.results,
                        queue_wait_s=started - request.submitted_s,
                        service_time_s=elapsed,
                        from_cache=template.from_cache,
                        batch_size=len(live),
                        error=template.error,
                    )
                self._resolve(request, outcome)

        self.obs.record_serve_batch(
            kind, len(live), len(groups), self.max_batch, elapsed,
            self.depth,
        )

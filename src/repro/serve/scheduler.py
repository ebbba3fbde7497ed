"""Request scheduler: a bounded FIFO queue with request coalescing.

Concurrent callers submit single queries; one dispatcher thread per
usable CPU answers them in arrival order:

1. an idle dispatcher blocks on the bounded FIFO queue and takes the
   **oldest** request, together with every queued request carrying the
   same fingerprint (same query bytes, kind and parameter) — request
   coalescing, the win under the QBH workload's repeated hums;
2. requests whose deadline already passed are resolved as
   ``deadline_exceeded`` without doing any work;
3. the survivors are answered by one execution, cancelled only once
   the group's *latest* deadline has passed;
4. every request's future is resolved — duplicates share the computed
   answer — and a request whose deadline lapsed *during* execution
   still gets ``deadline_exceeded``, never a late result.

Fairness is the queue order itself: no later arrival is taken before a
waiting request, so a hot query can never starve an unpopular one.

Dispatchers run executions side by side: the engine's refine kernel
and NumPy's large loops release the interpreter lock, so a second
dispatcher on a second core answers a second request instead of
queueing it behind the first.  The count is the CPUs this process may
run on (its affinity mask), not an option.

The scheduler knows nothing about engines or caches: execution is a
callable ``execute(request) -> ServeOutcome`` supplied by
:class:`~repro.serve.service.QBHService`, which keeps this module
testable with stub executors.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field

from ..obs import OBS_DISABLED
from ..obs.clock import monotonic_s

__all__ = ["ServeOutcome", "ServeRequest", "ServeFuture",
           "RequestScheduler"]

#: Outcome statuses a request can resolve to.
OUTCOME_STATUSES = ("ok", "shed", "deadline_exceeded", "error", "shutdown")


def _usable_cpus() -> int:
    """CPUs this process may run on: one dispatcher thread each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@dataclass
class ServeOutcome:
    """How one serving request ended.

    ``status`` is one of :data:`OUTCOME_STATUSES`; ``results`` is the
    exact ``(id, distance)`` sequence for ``ok`` and ``None``
    otherwise — a missed deadline or an error never carries a partial
    answer.  ``results`` may be shared between coalesced requests and
    cache hits: treat it as read-only.  ``batch_size`` counts the
    requests one execution answered: 1 plus its coalesced duplicates.
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
    execution with the latest deadline among the request and its
    coalesced duplicates — the executor's cooperative-cancellation
    cutoff: work stops only once *no* requester can still use the
    answer.
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

    def expired(self, now: float) -> bool:
        """Whether the request's own deadline has passed."""
        return self.deadline_s is not None and now > self.deadline_s


class RequestScheduler:
    """Bounded FIFO queue + one dispatcher thread per usable CPU.

    Parameters
    ----------
    execute:
        ``(request) -> ServeOutcome`` run on a dispatcher thread for
        the oldest waiting request; its coalesced duplicates share the
        answer.  Dispatchers call it concurrently, so it must be
        thread-safe.  The outcome is a template: the scheduler stamps
        per-request queue wait, group size, and the post-execution
        deadline check on top.
    max_queue_depth:
        Bound on waiting requests; :meth:`submit` refuses past it.
    on_complete:
        Optional ``(request, outcome) -> None`` callback run for every
        resolved request (the service's metrics hook).
    obs:
        Observability facade for ``serve:batch`` spans and metrics.
    """

    def __init__(self, execute, *, max_queue_depth: int | None = None,
                 on_complete=None, obs=None) -> None:
        self._execute = execute
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
            for i in range(_usable_cpus())
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
        """Requests currently answered by running executions, summed
        over dispatchers."""
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

    def close(self, *, drain: bool = True) -> bool:
        """Stop dispatching: drain the queue or shed it, then join
        every dispatcher; return whether they have all exited.

        With *drain* (default) queued requests are still executed;
        otherwise they resolve immediately with status ``shutdown``.
        Idempotent; safe to call from any thread.  Called from a
        dispatcher thread (an executor or completion callback), it
        joins none and returns ``False``: that dispatcher cannot join
        itself, and the others may still be executing; they exit once
        the queue is empty.
        """
        with self._cond:
            if not self._closed:
                self._closed = True
                self._drain = drain
            self._cond.notify_all()
        if threading.current_thread() in self._threads:
            return False
        for thread in self._threads:
            thread.join()
        # Every dispatcher has exited, so nothing calls these again.
        # They are the owner's bound methods: kept, scheduler and owner
        # form a reference cycle that strands the owner's index and
        # memory maps until the cyclic collector runs.
        self._execute = self._on_complete = None
        return True

    # ------------------------------------------------------------------
    # dispatcher side
    # ------------------------------------------------------------------

    def _next_group(self) -> list[ServeRequest] | None:
        """Block for the oldest request and take its duplicates along.

        Returns ``None`` exactly once the scheduler is closed and the
        queue is empty (dispatcher exit signal).  Holding the lock is
        confined to queue surgery; execution — and every completion
        callback — happens outside it.
        """
        while True:
            shed: list[ServeRequest] = []
            group: list[ServeRequest] = []
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return None
                if self._closed and not self._drain:
                    shed = list(self._queue)
                    self._queue.clear()
                else:
                    fingerprint = self._queue[0].fingerprint
                    kept: deque[ServeRequest] = deque()
                    for request in self._queue:
                        (group if request.fingerprint == fingerprint
                         else kept).append(request)
                    self._queue = kept
                    self._inflight += len(group)
            for request in shed:
                self._resolve(request, ServeOutcome(status="shutdown"))
            if group:
                return group

    def _dispatch_loop(self) -> None:
        while True:
            group = self._next_group()
            if group is None:
                return
            try:
                self._run_group(group)
            finally:
                with self._lock:
                    self._inflight -= len(group)

    def _resolve(self, request: ServeRequest, outcome: ServeOutcome) -> None:
        request.future.resolve(outcome)
        if self._on_complete is not None:
            self._on_complete(request, outcome)

    def _run_group(self, group: list[ServeRequest]) -> None:
        now = monotonic_s()
        live: list[ServeRequest] = []
        for request in group:
            if request.expired(now):
                self._resolve(request, ServeOutcome(
                    status="deadline_exceeded",
                    queue_wait_s=now - request.submitted_s,
                ))
            else:
                live.append(request)
        if not live:
            return

        # The head carries the group's *latest* deadline so the
        # executor only aborts once every duplicate has expired.
        head = live[0]
        deadlines = [request.deadline_s for request in live]
        head.group_deadline_s = (
            None if any(d is None for d in deadlines) else max(deadlines)
        )

        started = monotonic_s()
        try:
            template = self._execute(head)
        except Exception as exc:  # executor bug: fail the group loudly
            template = ServeOutcome(
                status="error", error=f"{type(exc).__name__}: {exc}",
            )
        done = monotonic_s()
        elapsed = done - started

        for request in live:
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

        self.obs.record_serve_batch(head.kind, len(live), elapsed, self.depth)

"""Request scheduler: FIFO dispatch, coalescing, fairness, parity.

The headline concurrency-edge test at the bottom sends a mixed
range/knn workload through a :class:`~repro.serve.QBHService` from
8 client threads, asserting the serving layer returns the exact
serially recorded answers.
"""

import threading
import time

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.serve import (
    QBHService,
    RequestScheduler,
    ServeOutcome,
    ServeRequest,
)

from tests.conftest import run_concurrently
from tests.serve.conftest import pin_cpus


def make_request(kind="knn", param=5, value=0.0, deadline_s=None):
    query = np.array([value, value + 1.0])
    from repro.serve import request_fingerprint

    return ServeRequest(
        kind=kind, query=query, param=param,
        fingerprint=request_fingerprint(query, kind, param),
        deadline_s=deadline_s,
    )


class RecordingExecutor:
    """Stub executor capturing the requests it executed.

    With *hold_first*, every execution blocks until :attr:`release` is
    set (and :meth:`wait_started` tells the test how many are running),
    so the test can occupy the dispatchers and queue requests behind
    them deterministically.
    """

    def __init__(self, delay_s=0.0, hold_first=False):
        self.executed = []
        self.delay_s = delay_s
        self._started = threading.Condition()
        self.release = threading.Event()
        if not hold_first:
            self.release.set()

    def wait_started(self, count=1, timeout=5.0):
        """Whether *count* executions have started within *timeout*."""
        with self._started:
            return self._started.wait_for(
                lambda: len(self.executed) >= count, timeout)

    def __call__(self, request):
        with self._started:
            self.executed.append(request)
            self._started.notify_all()
        assert self.release.wait(5)
        if self.delay_s:
            time.sleep(self.delay_s)
        return ServeOutcome(
            status="ok", results=((request.kind, float(request.param)),)
        )


class GatedExecutor:
    """Stub executor whose executions each wait, for at most five
    seconds, until *parties* of them run at once: with fewer
    dispatchers than parties the wait breaks and the requests fail."""

    def __init__(self, parties):
        self.barrier = threading.Barrier(parties, timeout=5.0)

    def __call__(self, request):
        self.barrier.wait()
        return ServeOutcome(
            status="ok", results=((request.kind, float(request.param)),)
        )


class TestBatching:
    """Queue policy, on two dispatchers whatever the host's CPU count,
    so that what a test occupies and queues does not depend on it."""

    @pytest.fixture(autouse=True)
    def _two_dispatchers(self, monkeypatch):
        pin_cpus(monkeypatch, 2)

    def test_single_request_dispatches(self):
        executor = RecordingExecutor()
        scheduler = RequestScheduler(executor)
        request = make_request()
        assert scheduler.submit(request)
        outcome = request.future.result(timeout=5)
        scheduler.close()
        assert outcome.ok and outcome.batch_size == 1

    def test_duplicates_coalesce_to_one_execution(self):
        executor = RecordingExecutor(hold_first=True)
        scheduler = RequestScheduler(executor)
        for blocker in (9.0, 10.0):  # one per dispatcher
            scheduler.submit(make_request(value=blocker))
        assert executor.wait_started(2)
        requests = [make_request(value=1.0) for _ in range(5)]
        for request in requests:
            scheduler.submit(request)
        executor.release.set()
        outcomes = [r.future.result(timeout=5) for r in requests]
        scheduler.close()
        assert all(o.ok for o in outcomes)
        assert executor.executed[2:] == [requests[0]]  # five, one run
        assert all(o.batch_size == 5 for o in outcomes)
        assert len({id(o.results) for o in outcomes}) == 1  # shared answer

    def test_fairness_oldest_first_no_starvation(self, monkeypatch):
        """A hot query group cannot starve an unpopular singleton.

        On one dispatcher, so that the order requests are taken in is
        the order they execute in."""
        pin_cpus(monkeypatch, 1)
        executor = RecordingExecutor(delay_s=0.002, hold_first=True)
        scheduler = RequestScheduler(executor)
        singleton = make_request(kind="range", param=1.0)
        hot = [make_request(param=5, value=float(i % 2)) for i in range(12)]
        scheduler.submit(hot[0])
        assert executor.wait_started()
        scheduler.submit(singleton)
        for request in hot[1:]:
            scheduler.submit(request)
        executor.release.set()
        assert singleton.future.result(timeout=5).ok
        for request in hot:
            assert request.future.result(timeout=5).ok
        scheduler.close()
        # The singleton runs right behind the request ahead of it,
        # never pushed back by later-arriving hot requests; the hot
        # ones queued behind it coalesce by fingerprint.
        assert executor.executed == [hot[0], singleton, hot[1], hot[2]]

    def test_queue_bound_refuses(self):
        executor = RecordingExecutor(delay_s=0.05)
        scheduler = RequestScheduler(executor, max_queue_depth=2)
        accepted = [scheduler.submit(make_request(value=float(i)))
                    for i in range(12)]
        scheduler.close()
        assert not all(accepted)

    def test_expired_deadline_skipped_without_execution(self):
        executor = RecordingExecutor()
        scheduler = RequestScheduler(executor)
        request = make_request(deadline_s=-1.0)  # already past
        scheduler.submit(request)
        outcome = request.future.result(timeout=5)
        scheduler.close()
        assert outcome.status == "deadline_exceeded"
        assert outcome.results is None
        assert executor.executed == []  # no work was done

    def test_close_drain_false_sheds_queue(self):
        executor = RecordingExecutor(delay_s=0.05)
        scheduler = RequestScheduler(executor)
        requests = [make_request(value=float(i)) for i in range(6)]
        for request in requests:
            scheduler.submit(request)
        scheduler.close(drain=False)
        statuses = {r.future.result(timeout=5).status for r in requests}
        assert statuses <= {"ok", "shutdown"}
        assert "shutdown" in statuses

    def test_executor_exception_becomes_error_outcome(self):
        def broken(request):
            raise RuntimeError("boom")

        scheduler = RequestScheduler(broken)
        request = make_request()
        scheduler.submit(request)
        outcome = request.future.result(timeout=5)
        scheduler.close()
        assert outcome.status == "error"
        assert "boom" in outcome.error

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            make_request(kind="nope")


class TestDispatchers:
    """One dispatcher per usable CPU, executing side by side."""

    @pytest.mark.parametrize("via", ["affinity", "cpu_count"])
    def test_distinct_requests_execute_at_once_on_every_dispatcher(
            self, monkeypatch, via):
        dispatchers = pin_cpus(monkeypatch, 3, via=via)
        scheduler = RequestScheduler(GatedExecutor(dispatchers))
        requests = [make_request(value=float(i)) for i in range(dispatchers)]
        try:
            for request in requests:
                assert scheduler.submit(request)
            outcomes = [r.future.result(timeout=10) for r in requests]
        finally:
            scheduler.close()
        assert [o.status for o in outcomes] == ["ok"] * dispatchers, [
            o.error for o in outcomes]

    def test_inflight_sums_over_dispatchers_and_close_joins_all(
            self, monkeypatch):
        dispatchers = pin_cpus(monkeypatch, 3)
        running = threading.Semaphore(0)
        release = threading.Event()

        class HeldEngine:
            def search(self, query, **kwargs):
                running.release()
                assert release.wait(5)
                return [("row", float(query[0]))], None

        service = QBHService(lambda: HeldEngine(), cache_size=0)
        try:
            futures = [service.submit("knn", [float(i), 0.0], 1)
                       for i in range(dispatchers)]
            for _ in range(dispatchers):
                assert running.acquire(timeout=5)
            assert service.saturation()["inflight"] == dispatchers
            queued = service.submit("knn", [9.0, 0.0], 1)
            assert service.saturation()["queue_depth"] == 1
            release.set()
        finally:
            release.set()
            service.close(drain=True)
        threads = service.scheduler._threads
        assert len(threads) == dispatchers
        assert not any(thread.is_alive() for thread in threads)
        assert all(f.result(timeout=0).ok for f in [*futures, queued])
        assert service.saturation()["inflight"] == 0


@pytest.fixture(scope="module")
def parity_setup():
    corpus = random_walks(300, 96, seed=41)
    engine = QueryEngine(corpus, delta=0.1)
    rng = np.random.default_rng(42)
    queries = [corpus[i] + 0.15 * rng.normal(size=96) for i in range(12)]
    requests = []
    for i, query in enumerate(queries):
        if i % 2 == 0:
            results, _ = engine.knn(query, 4)
            kind, param = "knn", 4
        else:
            results, _ = engine.range_search(query, 3.0)
            kind, param = "range", 3.0
        requests.append((query, kind, param, list(results)))
    return engine, requests


def test_service_parity_with_serial_dispatch_workers8(parity_setup):
    """Mixed range/knn traffic from 8 client threads, queued by the
    scheduler onto its dispatchers, returns byte-for-byte the serially
    recorded answers."""
    engine, requests = parity_setup
    want = [answer for _, _, _, answer in requests]
    service = QBHService.from_engine(engine, cache_size=64)

    def answer(request):
        query, kind, param, _ = request
        outcome = (service.range_search(query, param) if kind == "range"
                   else service.knn(query, param))
        assert outcome.ok, outcome.status
        return list(outcome.results)

    try:
        # Concurrent first, while the cache is cold: those requests go
        # through the queue and the dispatchers; the serial pass after
        # it is answered from the cache they filled.
        concurrent = run_concurrently(answer, requests, threads=8)
        serial = [answer(request) for request in requests]
        executed = service.saturation()["executed"]
    finally:
        service.close()
    # ids and distances by ==: byte-identical, not merely close.
    assert concurrent == want
    assert serial == want
    assert executed == len(requests)

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

    With *hold_first*, the first execution blocks until :attr:`release`
    is set (and :attr:`started` tells the test it is running), so the
    test can queue requests behind it deterministically.
    """

    def __init__(self, delay_s=0.0, hold_first=False):
        self.executed = []
        self.delay_s = delay_s
        self.started = threading.Event()
        self.release = threading.Event()
        if not hold_first:
            self.release.set()

    def __call__(self, request):
        self.executed.append(request)
        self.started.set()
        assert self.release.wait(5)
        if self.delay_s:
            time.sleep(self.delay_s)
        return ServeOutcome(
            status="ok", results=((request.kind, float(request.param)),)
        )


class TestBatching:
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
        blocker = make_request(value=9.0)
        scheduler.submit(blocker)
        assert executor.started.wait(5)
        requests = [make_request(value=1.0) for _ in range(5)]
        for request in requests:
            scheduler.submit(request)
        executor.release.set()
        outcomes = [r.future.result(timeout=5) for r in requests]
        scheduler.close()
        assert all(o.ok for o in outcomes)
        assert executor.executed[1:] == [requests[0]]  # five, one run
        assert all(o.batch_size == 5 for o in outcomes)
        assert len({id(o.results) for o in outcomes}) == 1  # shared answer

    def test_fairness_oldest_first_no_starvation(self):
        """A hot query group cannot starve an unpopular singleton."""
        executor = RecordingExecutor(delay_s=0.002, hold_first=True)
        scheduler = RequestScheduler(executor)
        singleton = make_request(kind="range", param=1.0)
        hot = [make_request(param=5, value=float(i % 2)) for i in range(12)]
        scheduler.submit(hot[0])
        assert executor.started.wait(5)
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
    scheduler onto its dispatcher, returns byte-for-byte the serially
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
        # through the queue and the dispatcher; the serial pass after
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

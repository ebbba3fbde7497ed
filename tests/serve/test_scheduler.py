"""Micro-batching scheduler: batching, coalescing, fairness, parity.

The headline concurrency-edge test at the bottom replays a mixed
range/knn workload through a :class:`~repro.serve.QBHService` from
8 client threads (``workers=8``) via the :mod:`repro.perf.replay`
parity harness — the same apparatus that checks the shard router
under concurrent callers — asserting the serving layer returns the
exact recorded answers.
"""

import threading
import time

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.perf.replay import replay_workload
from repro.serve import (
    MicroBatchScheduler,
    QBHService,
    ServeOutcome,
    ServeRequest,
)


def make_request(kind="knn", param=5, value=0.0, deadline_s=None):
    query = np.array([value, value + 1.0])
    from repro.serve import request_fingerprint

    return ServeRequest(
        kind=kind, query=query, param=param,
        fingerprint=request_fingerprint(query, kind, param),
        deadline_s=deadline_s,
    )


class RecordingExecutor:
    """Stub executor capturing the batches it was handed."""

    def __init__(self, delay_s=0.0):
        self.batches = []
        self.delay_s = delay_s
        self.lock = threading.Lock()

    def __call__(self, kind, param, requests):
        with self.lock:
            self.batches.append((kind, param, list(requests)))
        if self.delay_s:
            time.sleep(self.delay_s)
        return {
            r.fingerprint: ServeOutcome(
                status="ok", results=((kind, float(len(requests))),)
            )
            for r in requests
        }


class TestBatching:
    def test_single_request_dispatches(self):
        executor = RecordingExecutor()
        scheduler = MicroBatchScheduler(executor, max_batch=4,
                                        linger_s=0.001)
        request = make_request()
        assert scheduler.submit(request)
        outcome = request.future.result(timeout=5)
        scheduler.close()
        assert outcome.ok and outcome.batch_size == 1

    def test_concurrent_compatible_requests_batch_together(self):
        executor = RecordingExecutor()
        scheduler = MicroBatchScheduler(executor, max_batch=8,
                                        linger_s=0.05)
        requests = [make_request(value=float(i)) for i in range(6)]
        for request in requests:
            assert scheduler.submit(request)
        outcomes = [r.future.result(timeout=5) for r in requests]
        scheduler.close()
        assert all(o.ok for o in outcomes)
        # All six arrived within the linger window -> one batch.
        assert len(executor.batches) == 1
        assert outcomes[0].batch_size == 6

    def test_full_batch_dispatches_before_linger(self):
        executor = RecordingExecutor()
        scheduler = MicroBatchScheduler(executor, max_batch=2,
                                        linger_s=10.0)
        requests = [make_request(value=float(i)) for i in range(2)]
        started = time.perf_counter()
        for request in requests:
            scheduler.submit(request)
        outcomes = [r.future.result(timeout=5) for r in requests]
        elapsed = time.perf_counter() - started
        scheduler.close()
        assert all(o.ok for o in outcomes)
        assert elapsed < 5.0  # did not wait for the 10 s linger

    def test_incompatible_params_split_batches(self):
        executor = RecordingExecutor()
        scheduler = MicroBatchScheduler(executor, max_batch=8,
                                        linger_s=0.02)
        k5 = [make_request(param=5, value=float(i)) for i in range(3)]
        k9 = [make_request(param=9, value=float(i)) for i in range(3)]
        for request in k5 + k9:
            scheduler.submit(request)
        for request in k5 + k9:
            assert request.future.result(timeout=5).ok
        scheduler.close()
        assert len(executor.batches) == 2
        params = sorted(param for _, param, _ in executor.batches)
        assert params == [5, 9]

    def test_duplicates_coalesce_to_one_execution(self):
        executor = RecordingExecutor()
        scheduler = MicroBatchScheduler(executor, max_batch=8,
                                        linger_s=0.05)
        requests = [make_request(value=1.0) for _ in range(5)]
        for request in requests:
            scheduler.submit(request)
        outcomes = [r.future.result(timeout=5) for r in requests]
        scheduler.close()
        assert all(o.ok for o in outcomes)
        assert len(executor.batches) == 1
        _, _, executed = executor.batches[0]
        assert len(executed) == 1          # five requests, one execution
        assert outcomes[0].batch_size == 5
        assert len({id(o.results) for o in outcomes}) == 1  # shared answer

    def test_fairness_oldest_first_no_starvation(self):
        """A hot query group cannot starve an incompatible singleton."""
        executor = RecordingExecutor(delay_s=0.002)
        scheduler = MicroBatchScheduler(executor, max_batch=4,
                                        linger_s=0.001)
        singleton = make_request(kind="range", param=1.0)
        hot = [make_request(param=5, value=float(i % 2)) for i in range(12)]
        scheduler.submit(hot[0])
        scheduler.submit(singleton)
        for request in hot[1:]:
            scheduler.submit(request)
        assert singleton.future.result(timeout=5).ok
        for request in hot:
            assert request.future.result(timeout=5).ok
        scheduler.close()
        # The singleton went out in the first or second batch — right
        # behind the head group that preceded it, never pushed to the
        # back by later-arriving hot requests.
        position = next(
            i for i, (_, param, _) in enumerate(executor.batches)
            if param == 1.0
        )
        assert position <= 1

    def test_queue_bound_refuses(self):
        executor = RecordingExecutor(delay_s=0.05)
        scheduler = MicroBatchScheduler(executor, max_batch=1,
                                        linger_s=0.0, max_queue_depth=2)
        accepted = [scheduler.submit(make_request(value=float(i)))
                    for i in range(12)]
        scheduler.close()
        assert not all(accepted)

    def test_expired_deadline_skipped_without_execution(self):
        executor = RecordingExecutor()
        scheduler = MicroBatchScheduler(executor, max_batch=4,
                                        linger_s=0.0)
        request = make_request(deadline_s=-1.0)  # already past
        scheduler.submit(request)
        outcome = request.future.result(timeout=5)
        scheduler.close()
        assert outcome.status == "deadline_exceeded"
        assert outcome.results is None
        assert executor.batches == []  # no work was done

    def test_close_drain_false_sheds_queue(self):
        executor = RecordingExecutor(delay_s=0.05)
        scheduler = MicroBatchScheduler(executor, max_batch=1,
                                        linger_s=0.0)
        requests = [make_request(value=float(i)) for i in range(6)]
        for request in requests:
            scheduler.submit(request)
        scheduler.close(drain=False)
        statuses = {r.future.result(timeout=5).status for r in requests}
        assert statuses <= {"ok", "shutdown"}
        assert "shutdown" in statuses

    def test_executor_exception_becomes_error_outcome(self):
        def broken(kind, param, requests):
            raise RuntimeError("boom")

        scheduler = MicroBatchScheduler(broken, max_batch=2, linger_s=0.0)
        request = make_request()
        scheduler.submit(request)
        outcome = request.future.result(timeout=5)
        scheduler.close()
        assert outcome.status == "error"
        assert "boom" in outcome.error

    def test_validation(self):
        executor = RecordingExecutor()
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatchScheduler(executor, max_batch=0)
        with pytest.raises(ValueError, match="linger_s"):
            MicroBatchScheduler(executor, linger_s=-1.0)
        with pytest.raises(ValueError, match="dispatchers"):
            MicroBatchScheduler(executor, dispatchers=0)
        with pytest.raises(ValueError, match="kind"):
            make_request(kind="nope")


@pytest.fixture(scope="module")
def parity_setup():
    corpus = random_walks(300, 96, seed=41)
    engine = QueryEngine(corpus, delta=0.1)
    rng = np.random.default_rng(42)
    queries = [corpus[i] + 0.15 * rng.normal(size=96) for i in range(12)]
    records = []
    for i, query in enumerate(queries):
        if i % 2 == 0:
            results, _ = engine.knn(query, 4)
            params = {"k": 4}
            kind = "knn"
        else:
            results, _ = engine.range_search(query, 3.0)
            params = {"epsilon": 3.0}
            kind = "range"
        records.append({
            "schema": 1, "query_id": f"q{i}", "kind": kind,
            "params": params, "query": [float(v) for v in query],
            "results": [[item, float(dist)] for item, dist in results],
        })
    return engine, records


class _ServiceEngineAdapter:
    """Expose a QBHService through the engine replay interface."""

    def __init__(self, service):
        self.service = service

    def search(self, query, *, k=None, epsilon=None):
        outcome = (self.service.range_search(query, epsilon)
                   if k is None else self.service.knn(query, k))
        assert outcome.ok, outcome.status
        return list(outcome.results), None


def test_service_parity_with_serial_dispatch_workers8(parity_setup):
    """Mixed range/knn traffic from 8 client threads, batched by the
    scheduler onto two dispatchers, returns byte-for-byte the serially
    recorded answers."""
    engine, records = parity_setup
    service = QBHService.from_engine(
        engine, max_batch=8, linger_ms=1.0, dispatchers=2, cache_size=64,
    )
    try:
        adapter = _ServiceEngineAdapter(service)
        # Concurrent first, while the cache is cold: those requests go
        # through batches and both dispatchers; the serial pass after
        # it is answered from the cache they filled.
        reports = [
            replay_workload(
                lambda backend: adapter, records,
                backends=("service",), modes=(mode,), workers=8,
                atol=0.0,  # byte-identical, not merely close
            )
            for mode in ("concurrent", "serial")
        ]
        executed = service.saturation()["executed"]
    finally:
        service.close()
    for report in reports:
        assert report.ok, report.summary()
        assert len(report.checks) == len(records)
    assert executed == len(records)

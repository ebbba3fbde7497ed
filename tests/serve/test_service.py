"""QBHService: lifecycle, admission wiring, cache fast path, metrics."""

import gc
import os
import subprocess
import sys
import textwrap
import threading
import time
import weakref

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.index.gemini import WarpingIndex
from repro.obs import Observability
from repro.serve import AdmissionPolicy, QBHService, RetryPolicy

from tests.serve.conftest import pin_cpus


@pytest.fixture(scope="module")
def corpus():
    return random_walks(60, 64, seed=7)


@pytest.fixture(scope="module")
def engine(corpus):
    return QueryEngine(list(corpus), delta=0.1)


class GatedEngine:
    """Stub engine: the first *held* searches block until
    :attr:`release` is set (:meth:`wait_started` says they are
    running); every later search sleeps *delay_s*.  Holding as many
    searches as there are dispatchers lets a test queue requests
    behind them.  :attr:`queries` lists the first value of each
    search's query, in the order the searches started."""

    def __init__(self, delay_s=0.0, held=1):
        self.delay_s = delay_s
        self.held = held
        self.release = threading.Event()
        self.calls = 0
        self.queries = []
        self._started = threading.Condition()

    def wait_started(self, count, timeout=10.0):
        """Whether *count* searches have started within *timeout*."""
        with self._started:
            return self._started.wait_for(lambda: self.calls >= count,
                                          timeout)

    def search(self, query, *, k=None, epsilon=None, should_abort=None):
        with self._started:
            self.calls += 1
            call = self.calls
            self.queries.append(float(query[0]))
            self._started.notify_all()
        if call <= self.held:
            assert self.release.wait(10)
        else:
            time.sleep(self.delay_s)
        return [(f"row{int(query[0])}", float(query[0]))], None


class TestLifecycle:
    def test_sync_answers_match_direct_engine(self, corpus, engine):
        query = corpus[5] + 0.1
        with QBHService.from_engine(engine) as service:
            outcome = service.knn(query, 3)
            assert outcome.ok
            direct, _ = engine.knn(query, 3)
            assert [i for i, _ in outcome.results] == [i for i, _ in direct]

    def test_unsharded_service_never_imports_the_shard_tier(self):
        """Serving one in-process index must not pay for (or depend
        on) ``repro.shard`` and ``multiprocessing``; a fresh
        interpreter is the only place that can be observed."""
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from repro.core.normal_form import NormalForm
            from repro.index.gemini import WarpingIndex
            from repro.serve import QBHService

            rng = np.random.default_rng(0)
            walks = [np.cumsum(rng.normal(size=64)) for _ in range(20)]
            index = WarpingIndex(walks, delta=0.1,
                                 normal_form=NormalForm(length=64))
            service = QBHService.from_index(index)
            outcome = service.knn(walks[3], 3, timeout=30)
            service.close()
            assert outcome.ok, outcome.status
            assert "repro.shard.router" not in sys.modules
        """)
        path = os.pathsep.join(entry for entry in sys.path if entry)
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr[-2000:]

    def test_submit_after_close_raises(self, corpus, engine):
        service = QBHService.from_engine(engine)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit("knn", corpus[0], 3)

    def test_drain_completes_queued_requests(self, corpus, engine):
        service = QBHService.from_engine(engine)
        futures = [service.submit("knn", corpus[i] + 0.05, 3)
                   for i in range(6)]
        service.drain()
        outcomes = [future.result(timeout=10) for future in futures]
        assert all(o.ok for o in outcomes)

    def test_close_without_drain_sheds(self, corpus, monkeypatch):
        # Two held requests, one per dispatcher, keep the rest queued
        # until the close.
        pin_cpus(monkeypatch, 2)
        gated = GatedEngine(held=2)
        service = QBHService.from_engine(gated)
        futures = [service.submit("knn", corpus[i] + 0.05, 3)
                   for i in range(8)]
        assert gated.wait_started(2)
        threading.Timer(0.05, gated.release.set).start()
        service.close(drain=False)
        statuses = {f.result(timeout=10).status for f in futures}
        assert "shutdown" in statuses
        assert statuses <= {"ok", "shutdown"}

    def test_close_on_a_dispatcher_closes_the_fleet_after_the_others(
            self, monkeypatch):
        """A close called by an executor returns at once; the fleet the
        service owns closes only once the other dispatcher's execution
        has finished, so that execution never meets a closed fleet."""
        pin_cpus(monkeypatch, 2)
        finished = []
        closed = threading.Event()

        class Fleet:
            def close(self):
                self.finished_before_close = list(finished)
                closed.set()

        class ClosingEngine(GatedEngine):
            def search(self, query, **kwargs):
                if query[0] == 1.0:
                    service.close()
                    return [("closer", 1.0)], None
                answer = super().search(query, **kwargs)
                finished.append(query[0])
                return answer

        gated = ClosingEngine()
        service = QBHService.from_engine(gated, cache_size=0)
        fleet = service._owned_shards = Fleet()
        held = service.submit("knn", np.array([0.0, 0.0]), 3)
        assert gated.wait_started(1)
        closer = service.submit("knn", np.array([1.0, 0.0]), 3)
        assert closer.result(timeout=10).ok
        assert not closed.wait(0.2)
        gated.release.set()
        assert held.result(timeout=10).ok
        assert closed.wait(10)
        assert fleet.finished_before_close == [0.0]

    def test_context_manager_closes(self, corpus, engine):
        with QBHService.from_engine(engine) as service:
            assert service.knn(corpus[0], 2).ok
        with pytest.raises(RuntimeError):
            service.submit("knn", corpus[0], 2)


class TestAdmissionWiring:
    def test_overload_sheds_with_retry_hint(self, corpus, monkeypatch):
        # Two held executions and a queue of one admit at most three
        # of the six submissions, however fast the dispatchers take.
        pin_cpus(monkeypatch, 2)
        gated = GatedEngine(held=2)
        service = QBHService.from_engine(
            gated,
            admission=AdmissionPolicy(max_queue_depth=1,
                                      retry_after_s=0.25),
        )
        try:
            futures = [service.submit("knn", corpus[i] + 0.05, 3)
                       for i in range(6)]
            gated.release.set()
            shed = [f.result(timeout=10) for f in futures
                    if f.result(timeout=10).status == "shed"]
            assert len(shed) >= 3, "two held + a queue of 1 admit 3 of 6"
            assert all(o.retry_after_s == 0.25 for o in shed)
            assert all(o.results is None for o in shed)
        finally:
            service.close(drain=False)

    def test_sync_retry_rides_out_transient_overload(self, corpus, engine):
        service = QBHService.from_engine(
            engine,
            admission=AdmissionPolicy(max_queue_depth=1,
                                      retry_after_s=0.001),
            retry=RetryPolicy(base_s=0.001, max_attempts=50),
        )
        try:
            results = []
            errors = []

            def client(i):
                try:
                    results.append(service.knn(corpus[i] + 0.05, 3))
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            # with retries, every client eventually gets an answer
            assert all(o.ok for o in results)
            assert any(o.attempts >= 1 for o in results)
        finally:
            service.close()

    def test_default_deadline_applies(self, corpus):
        # An impossible default deadline turns every answer into a miss.
        big = QueryEngine(list(random_walks(400, 256, seed=9)), delta=0.1)
        service = QBHService.from_engine(
            big,
            admission=AdmissionPolicy(default_deadline_s=1e-7),
        )
        try:
            outcome = service.knn(corpus[0][:256] if len(corpus[0]) >= 256
                                  else np.resize(corpus[0], 256), 3)
            assert outcome.status == "deadline_exceeded"
            assert outcome.results is None
        finally:
            service.close()


class TestOneExecutionAtATime:
    """On one dispatcher, the only count at which what is queued
    behind a held request does not depend on thread timing."""

    def test_distinct_queued_requests_never_share_an_execution(
            self, monkeypatch):
        """Queued behind a held request, B, C (same kind and k, other
        query) and D (B's duplicate) take two executions, in queue
        order: B's, which D shares, then C's alone."""
        pin_cpus(monkeypatch, 1)
        gated = GatedEngine()
        service = QBHService.from_engine(gated, cache_size=0)
        try:
            held = service.submit("knn", np.array([0.0, 0.0]), 3)
            assert gated.wait_started(1)
            futures = [service.submit("knn", np.array([value, 0.0]), 3)
                       for value in (1.0, 2.0, 1.0)]
            gated.release.set()
            assert held.result(timeout=10).ok
            b, c, d = (future.result(timeout=10) for future in futures)
        finally:
            service.close()
        assert b.ok and c.ok and d.ok
        assert gated.queries == [0.0, 1.0, 2.0]   # held, then B, then C
        assert d.results is b.results
        assert b.batch_size == 2 and c.batch_size == 1


class TestCacheFastPath:
    def test_repeat_hits_cache_and_skips_scheduler(self, corpus, engine):
        service = QBHService.from_engine(engine, cache_size=32)
        try:
            query = corpus[7] + 0.2
            first = service.knn(query, 3)
            second = service.knn(query, 3)
            assert first.ok and not first.from_cache
            assert second.ok and second.from_cache
            assert second.results == first.results
            saturation = service.saturation()
            assert saturation["cache_hits"] == 1
            assert saturation["executed"] == 1  # second never executed
        finally:
            service.close()

    def test_cache_disabled_always_executes(self, corpus, engine):
        service = QBHService.from_engine(engine, cache_size=0)
        try:
            query = corpus[7] + 0.2
            assert not service.knn(query, 3).from_cache
            assert not service.knn(query, 3).from_cache
            assert service.saturation()["executed"] == 2
        finally:
            service.close()


class TestSaturationAndMetrics:
    def test_saturation_counters_reconcile(self, corpus, engine):
        service = QBHService.from_engine(engine, cache_size=32)
        try:
            for i in range(5):
                assert service.knn(corpus[i] + 0.1, 3).ok
            service.knn(corpus[0] + 0.1, 3)  # repeat -> cache hit
        finally:
            service.close()
        saturation = service.saturation()
        assert saturation["submitted"] == 6
        assert saturation["completed"] == 6
        assert saturation["ok"] == 6
        assert saturation["cache_hits"] == 1
        assert saturation["executed"] == 5
        assert saturation["queue_depth"] == 0
        assert saturation["inflight"] == 0
        assert saturation["cache_hit_rate"] == pytest.approx(1 / 6)
        assert saturation["cache"]["hits"] == 1

    def test_serve_metrics_reach_registry(self, corpus, engine):
        obs = Observability()
        service = QBHService.from_engine(engine, cache_size=32, obs=obs)
        try:
            query = corpus[3] + 0.1
            service.knn(query, 3)
            service.knn(query, 3)
        finally:
            service.close()
        counters = obs.metrics.snapshot()["counters"]
        assert counters["serve.requests_total{kind=knn,status=ok}"] == 2
        assert counters["serve.cache_probes_total{event=miss}"] == 1
        assert counters["serve.cache_probes_total{event=hit}"] == 1
        assert counters["serve.batches_total{kind=knn}"] == 1

    def test_serve_spans_are_roots(self, corpus, engine):
        from repro.obs.tracing import InMemorySink

        sink = InMemorySink()
        obs = Observability(trace_sink=sink)
        traced_engine = QueryEngine(list(corpus), delta=0.1, obs=obs)
        service = QBHService.from_engine(traced_engine, obs=obs)
        try:
            service.knn(corpus[3] + 0.1, 3)
        finally:
            service.close()
        spans = sink.spans
        serve_spans = [s for s in spans if s.name.startswith("serve:")]
        assert {s.name for s in serve_spans} == {
            "serve:request", "serve:batch",
        }
        assert all(s.parent_id is None for s in serve_spans)
        # the engine's own query span is still recorded, untouched
        assert any(s.name == "query" for s in spans)


class TestFromIndex:
    def test_from_index_normalises_like_cascade_query(self, corpus):
        index = WarpingIndex(list(corpus[:30]), delta=0.1)
        query = corpus[2] + 0.3
        direct, _ = index.cascade_knn_query(query, 3)
        service = QBHService.from_index(index)
        try:
            outcome = service.knn(query, 3)
        finally:
            service.close()
        assert outcome.ok
        assert ([i for i, _ in outcome.results]
                == [i for i, _ in direct])

    def test_from_index_inherits_obs(self, corpus):
        obs = Observability()
        index = WarpingIndex(list(corpus[:20]), delta=0.1, obs=obs)
        service = QBHService.from_index(index)
        try:
            assert service.obs is obs
            service.knn(corpus[0], 2)
        finally:
            service.close()
        counters = obs.metrics.snapshot()["counters"]
        assert counters["serve.requests_total{kind=knn,status=ok}"] == 1

    def test_closed_service_releases_its_index(self, corpus):
        """No reference cycle outlives ``close()``: the service, the
        index, its engine and its bulk-loaded R*-tree are freed by
        reference counting alone, not whenever the cyclic collector
        next runs (open/close loops otherwise pile up corpora)."""
        gc.collect()
        gc.disable()
        try:
            index = WarpingIndex(list(corpus[:40]), delta=0.1)
            service = QBHService.from_index(index)
            try:
                assert service.knn(corpus[2] + 0.3, 3).ok
            finally:
                service.close()
            refs = {
                "service": weakref.ref(service),
                "index": weakref.ref(index),
                "engine": weakref.ref(index.engine()),
                "tree": weakref.ref(index._snapshot(tree=True).tree),
            }
            del service, index
            alive = [name for name, ref in refs.items() if ref() is not None]
        finally:
            gc.enable()
        assert alive == []


class TestShadowScoring:
    def test_shadow_fraction_one_checks_every_ok_request(self, corpus,
                                                         engine):
        obs = Observability()
        service = QBHService.from_engine(engine, cache_size=32, obs=obs,
                               shadow_fraction=1.0)
        try:
            for i in range(3):
                assert service.knn(corpus[i] + 0.1, 3).ok
            assert service.knn(corpus[0] + 0.1, 3).ok   # cache hit
        finally:
            service.close()
        shadow = service.saturation()["shadow"]
        assert shadow["offered"] == 4
        assert shadow["checked"] == 4
        assert shadow["disagreed"] == 0
        assert shadow["agreement"] == 1.0
        gauges = obs.metrics.snapshot()["gauges"]
        assert gauges["quality.shadow.agreement"] == 1.0

    def test_cached_answers_are_shadowed_too(self, corpus, engine):
        # The cache is exactly the path an exact re-check must cover:
        # a stale or mis-keyed hit is invisible to latency telemetry.
        service = QBHService.from_engine(engine, cache_size=32,
                                         shadow_fraction=1.0)
        try:
            query = corpus[5] + 0.1
            assert service.knn(query, 3).ok
            hit = service.knn(query, 3)
            assert hit.ok and hit.from_cache
        finally:
            service.close()
        assert service.shadow.checked == 2
        assert service.shadow.disagreed == 0

    def test_range_requests_shadow_against_exact(self, corpus, engine):
        service = QBHService.from_engine(engine, shadow_fraction=1.0)
        try:
            assert service.range_search(corpus[2] + 0.1, 5.0).ok
        finally:
            service.close()
        assert service.shadow.checked == 1
        assert service.shadow.disagreed == 0

    def test_shadow_disabled_by_default(self, engine):
        service = QBHService.from_engine(engine)
        try:
            assert service.shadow is None
            assert "shadow" not in service.saturation()
        finally:
            service.close()

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_bad_shadow_fraction_rejected(self, engine, fraction):
        with pytest.raises(ValueError):
            QBHService.from_engine(engine, shadow_fraction=fraction)

    def test_shadow_failure_never_fails_serving(self, corpus, engine):
        service = QBHService.from_engine(engine, shadow_fraction=1.0)
        try:
            def boom(kind, query, param):
                raise RuntimeError("exact path exploded")

            service.shadow._exact_fn = boom
            outcome = service.knn(corpus[1] + 0.1, 3)
            assert outcome.ok                  # telemetry, not serving
        finally:
            service.close()

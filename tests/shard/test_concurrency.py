"""Thread-safety of the shard tier: the reviewer-found failure modes.

A :class:`ShardRouter`'s pipes carry one conversation at a time, so
several threads calling one router used to interleave sends and let
one thread consume another's replies (dropped by the ``req_id``
filter, leaving the victim blocked in its gather loop forever).  These
tests pin the fix: fan-outs serialize on a router-level lock, the
manager serializes rebuilds, a threaded process never forks workers,
and garbage collection never blocks behind worker joins.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.index.gemini import WarpingIndex
from repro.serve.loadgen import result_digest
from repro.shard import IndexShardManager, ShardRouter, resolve_mp_context


@pytest.fixture(scope="module")
def corpus():
    return random_walks(36, 48, seed=211)


@pytest.fixture(scope="module")
def reference(corpus):
    return QueryEngine(list(corpus), delta=0.1)


@pytest.fixture(scope="module")
def queries(corpus):
    rng = np.random.default_rng(212)
    return [corpus[i % 36] + 0.1 * rng.normal(size=corpus.shape[1])
            for i in range(8)]


class TestConcurrentFanouts:
    def test_threaded_router_calls_stay_exact(self, reference, queries):
        """Many threads hammering one router: every answer must match
        the single-engine bytes and every thread must finish (the
        pre-lock failure mode was a silent reply steal + hang)."""
        want = {i: result_digest(reference.knn(q, 4)[0])
                for i, q in enumerate(queries)}
        failures = []
        with ShardRouter.from_engine(reference, shards=3) as router:
            def client(thread_idx):
                try:
                    for rep in range(3):
                        i = (thread_idx + rep) % len(queries)
                        got, _ = router.knn(queries[i], 4)
                        if result_digest(got) != want[i]:
                            failures.append((thread_idx, i, "bytes"))
                except Exception as exc:  # pragma: no cover - fail path
                    failures.append((thread_idx, None, repr(exc)))

            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            stuck = [t for t in threads if t.is_alive()]
            assert not stuck, "fan-out threads deadlocked"
        assert not failures, failures


class TestManagerSynchronization:
    def test_concurrent_rebuild_decisions_build_once(self,
                                                     generation_pool):
        """Dispatcher threads racing ``router()`` after a swap must
        converge on one fleet — never close a router out from under
        each other or build two."""
        index = WarpingIndex.from_store(generation_pool[0])
        manager = IndexShardManager(index, shards=2)
        try:
            first = manager.router()
            epoch_before = manager.epoch
            index.swap_generation(generation_pool[2])
            barrier = threading.Barrier(4)
            routers = []

            def dispatcher():
                barrier.wait()
                routers.append(manager.router())

            threads = [threading.Thread(target=dispatcher)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert len(routers) == 4
            rebuilt = {id(router) for router in routers}
            assert len(rebuilt) == 1, "concurrent rebuild built two fleets"
            router = routers[0]
            assert router is not first
            assert not router._closed
            assert first._closed
            # Epoch carried strictly forward, version consistent.
            assert manager.epoch > epoch_before
            assert manager.version() == (1, manager.epoch)
            assert len(router) == generation_pool[2].rows
            hum = np.cumsum(np.random.default_rng(213).normal(size=80))
            got, _ = router.knn(index.normal_form.apply(hum), 3)
            assert got == WarpingIndex.from_store(
                generation_pool[2]).cascade_knn_query(hum, 3)[0]
        finally:
            manager.close()


class TestStartMethodSafety:
    def test_default_prefers_fork_only_single_threaded(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        assert resolve_mp_context(None).get_start_method() == "fork"
        monkeypatch.setattr(threading, "active_count", lambda: 3)
        assert resolve_mp_context(None).get_start_method() == "spawn"

    def test_explicit_context_is_honored(self, monkeypatch):
        monkeypatch.setattr(threading, "active_count", lambda: 3)
        assert resolve_mp_context("spawn").get_start_method() == "spawn"

    def test_respawn_from_threaded_process_uses_spawn(self, reference,
                                                      monkeypatch):
        """A defaulted-``fork`` router re-decides per spawn: respawns on
        a live (threaded) service must not fork."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        router = ShardRouter.from_engine(reference, shards=2)
        try:
            assert router._mp.get_start_method() == "fork"
            assert router._spawn_context().get_start_method() == "fork"
            monkeypatch.setattr(threading, "active_count", lambda: 4)
            assert router._spawn_context().get_start_method() == "spawn"
            # An explicit context stays what the caller chose.
            router._mp_explicit = True
            assert router._spawn_context().get_start_method() == "fork"
        finally:
            router._mp_explicit = False
            router.close()


class TestGcTeardown:
    def test_del_path_never_joins_a_busy_worker(self, corpus):
        """``__del__`` must terminate-and-go, even with a worker deep in
        a request — the drain (with its 5 s joins) is reserved for
        explicit ``close()``."""
        engine = QueryEngine(list(corpus), delta=0.1)
        router = ShardRouter.from_engine(engine, shards=2)
        tmpdir = router._tmpdir
        processes = [shard.process for shard in router._shards]
        # Park worker 0 behind a queue of requests so it cannot see a
        # poison pill before teardown runs.
        for i in range(64):
            query = np.asarray(corpus[i % 36], dtype=np.float64)
            router._shards[0].conn.send(
                ("req", 999 + i, query, 3, None, None, False))
        started = time.perf_counter()
        router._shutdown(drain=False)  # what __del__ runs
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"gc teardown blocked for {elapsed:.1f}s"
        deadline = time.monotonic() + 10.0
        while (any(p.is_alive() for p in processes)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not any(p.is_alive() for p in processes)
        assert not os.path.exists(tmpdir)

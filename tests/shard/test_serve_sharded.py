"""The sharded service end to end: correctness under churn.

The composite cache version ``(index generation, router epoch)`` is the
load-bearing piece: a generation swap *or* a worker respawn must
invalidate every cached answer computed before it.  The property test
at the bottom interleaves swaps, forced worker kills, and queries
under Hypothesis and checks every served answer against the *current*
index's ground truth — the exactness-critical acceptance criterion of
the shard tier.  Above it: deterministic versions of each moving part,
and a kill-under-load test where every outcome must be a byte-correct
result or a typed error, never a wrong or lost answer.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.index.gemini import WarpingIndex
from repro.serve import QBHService
from repro.serve.loadgen import (
    result_digest,
    run_load,
    service_dispatch,
    zipf_workload,
)


@pytest.fixture(scope="module")
def corpus():
    return random_walks(40, 64, seed=111)


def _current_router(service):
    """The live ShardRouter behind a sharded service (test access)."""
    owned = service._owned_shards
    return owned.router() if hasattr(owned, "router") else owned


def _kill_worker(service, shard=0):
    router = _current_router(service)
    router._shards[shard % router.n_shards].process.kill()
    router._shards[shard % router.n_shards].process.join(timeout=10.0)


class TestShardedService:
    def test_from_engine_answers_match_engine(self, corpus):
        engine = QueryEngine(list(corpus), delta=0.1)
        service = QBHService.from_engine(engine, shards=2)
        try:
            query = corpus[5] + 0.1
            outcome = service.knn(query, 4)
            assert outcome.status == "ok"
            want, _ = engine.knn(query, 4)
            assert result_digest(outcome.results) == result_digest(want)
        finally:
            service.close()

    def test_respawn_invalidates_prior_cache_entries(self, corpus):
        """Kill -> next computed query respawns and bumps the epoch ->
        entries cached under the old epoch recompute (byte-identically,
        the corpus being unchanged)."""
        index = WarpingIndex(list(corpus[:20]), delta=0.1)
        service = QBHService.from_index(index, shards=2, cache_size=32)
        try:
            q_cached, q_other = corpus[2] + 0.05, corpus[7] + 0.05
            first = service.knn(q_cached, 3)
            assert not first.from_cache
            assert service.knn(q_cached, 3).from_cache
            epoch = service._owned_shards.epoch
            _kill_worker(service)
            # The crash is observed at the next actual fan-out (a cache
            # hit never touches the workers)...
            computed = service.knn(q_other, 3)
            assert computed.status == "ok" and not computed.from_cache
            assert service._owned_shards.epoch == epoch + 1
            # ...after which the pre-crash entry is stale: recomputed,
            # not served from cache, and still the same bytes.
            again = service.knn(q_cached, 3)
            assert not again.from_cache
            assert result_digest(again.results) == result_digest(
                first.results)
        finally:
            service.close()

    def test_mutation_rebuilds_the_fleet(self, generation_pool):
        index = WarpingIndex.from_store(generation_pool[0])
        service = QBHService.from_index(index, shards=2)
        try:
            query = _hums(1, seed=110)[0]
            assert service.knn(query, 3).status == "ok"
            before = _current_router(service)
            index.swap_generation(generation_pool[2])
            outcome = service.knn(query, 3)
            assert outcome.status == "ok"
            assert _current_router(service) is not before
            truth = WarpingIndex.from_store(
                generation_pool[2]).ground_truth_knn(query, 3)
            assert [i for i, _ in outcome.results] == [i for i, _ in truth]
        finally:
            service.close()

    def test_kill_under_load_loses_nothing(self, corpus):
        """Workers die while clients are in flight: every request
        resolves as a byte-correct result or a typed error."""
        engine = QueryEngine(list(corpus), delta=0.1)
        rng = np.random.default_rng(112)
        pool = [corpus[i % 40] + 0.1 * rng.normal(size=64) for i in range(8)]
        specs = zipf_workload(48, 8, seed=113, kinds=("knn", "range"),
                              knn_k=4, epsilon=5.0)
        truth = {}
        for spec in specs:
            if spec not in truth:
                query = pool[spec.query_index]
                if spec.kind == "range":
                    want, _ = engine.range_search(query, spec.param)
                else:
                    want, _ = engine.knn(query, spec.param)
                truth[spec] = result_digest(want)
        service = QBHService.from_engine(engine, shards=2, cache_size=0)
        stop = threading.Event()

        def killer():
            while not stop.is_set():
                time.sleep(0.05)
                try:
                    _kill_worker(service, shard=0)
                except Exception:
                    return  # service already closing
        thread = threading.Thread(target=killer, name="shard-killer")
        try:
            thread.start()
            report = run_load(service_dispatch(service), specs, pool,
                              clients=4)
        finally:
            stop.set()
            thread.join()
            service.close()
        assert report.completed == len(specs)
        for record in report.records:
            assert record.status in ("ok", "error"), record.status
            if record.status == "ok":
                assert record.digest == truth[record.spec], (
                    f"wrong answer under churn for {record.spec}"
                )


def _hums(count, seed):
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.normal(size=80)) for _ in range(count)]


@settings(max_examples=8, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["query", "swap", "kill"]),
              st.integers(min_value=0, max_value=7)),
    min_size=4, max_size=10,
))
def test_sharded_cache_never_serves_stale(generation_pool, ops):
    """Property: under any interleaving of generation swaps (back-swaps
    included), forced worker kills, and queries, a sharded caching
    service always serves the *current* index's ground truth — the
    composite ``(generation, epoch)`` version leaves no stale window."""
    index = WarpingIndex.from_store(generation_pool[0])
    fresh = {store.root: WarpingIndex.from_store(store).engine()
             for store in generation_pool}
    service = QBHService.from_index(index, shards=2, cache_size=64)
    pool = _hums(8, seed=115)
    try:
        for op, arg in ops:
            if op == "swap":
                index.swap_generation(
                    generation_pool[arg % len(generation_pool)])
            elif op == "kill":
                _kill_worker(service, shard=arg)
            else:
                query = pool[arg]
                outcome = service.knn(query, 3)
                assert outcome.status == "ok"
                truth = fresh[index.store.root].ground_truth_knn(
                    index.normal_form.apply(query), 3
                )
                assert [i for i, _ in outcome.results] == \
                    [i for i, _ in truth]
                np.testing.assert_allclose(
                    [d for _, d in outcome.results],
                    [d for _, d in truth], atol=1e-9,
                )
    finally:
        service.close()

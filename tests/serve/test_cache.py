"""Result cache: LRU/TTL mechanics and versioned invalidation.

The exactness-critical property is at the bottom: after *any*
generation swap, a cache probe must never serve the pre-swap answer —
verified against the index's ground-truth oracle across a randomised
swap/query interleaving (the invalidation-on-swap property test of the
serving acceptance criteria).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import random_walks
from repro.index.gemini import WarpingIndex
from repro.serve import QBHService, ResultCache, request_fingerprint


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestFingerprint:
    def test_stable_across_representations(self):
        values = [0.5, -1.25, 3.0]
        a = request_fingerprint(values, "knn", 5)
        b = request_fingerprint(np.array(values, dtype=np.float32), "knn", 5)
        c = request_fingerprint(np.asarray(values)[::1], "knn", 5)
        assert a == b == c

    def test_kind_and_param_separate_keys(self):
        values = [0.5, -1.25, 3.0]
        assert (request_fingerprint(values, "knn", 5)
                != request_fingerprint(values, "range", 5.0))
        assert (request_fingerprint(values, "knn", 5)
                != request_fingerprint(values, "knn", 6))

    def test_different_queries_differ(self):
        assert (request_fingerprint([1.0, 2.0], "knn", 5)
                != request_fingerprint([1.0, 2.5], "knn", 5))


class TestResultCache:
    def test_hit_returns_stored_results(self):
        cache = ResultCache(8)
        cache.put("k1", 0, [("a", 1.0)])
        assert cache.get("k1", 0) == (("a", 1.0),)
        assert cache.stats.hits == 1

    def test_miss_on_absent_key(self):
        cache = ResultCache(8)
        assert cache.get("nope", 0) is None
        assert cache.stats.misses == 1

    def test_version_mismatch_is_a_miss_and_drops_entry(self):
        cache = ResultCache(8)
        cache.put("k1", 0, [("a", 1.0)])
        assert cache.get("k1", 1) is None
        assert cache.stats.stale == 1
        # the stale entry is gone even for the original version
        assert cache.get("k1", 0) is None

    def test_lru_evicts_least_recently_probed(self):
        cache = ResultCache(2)
        cache.put("a", 0, [("a", 1.0)])
        cache.put("b", 0, [("b", 1.0)])
        assert cache.get("a", 0) is not None   # refresh a
        cache.put("c", 0, [("c", 1.0)])        # evicts b
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) is not None
        assert cache.get("c", 0) is not None
        assert cache.stats.evictions == 1

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = ResultCache(8, ttl_s=10.0, clock=clock)
        cache.put("k1", 0, [("a", 1.0)])
        clock.now = 9.0
        assert cache.get("k1", 0) is not None
        clock.now = 20.0
        assert cache.get("k1", 0) is None
        assert cache.stats.expired == 1

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(0)
        cache.put("k1", 0, [("a", 1.0)])
        assert cache.get("k1", 0) is None
        assert len(cache) == 0

    def test_clear_keeps_stats(self):
        cache = ResultCache(8)
        cache.put("k1", 0, [("a", 1.0)])
        cache.get("k1", 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(-1)
        with pytest.raises(ValueError, match="ttl_s"):
            ResultCache(8, ttl_s=0.0)


@pytest.fixture(scope="module")
def mutation_corpus():
    return random_walks(40, 96, seed=21)


def _hums(count, seed):
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.normal(size=80)) for _ in range(count)]


@settings(max_examples=15, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["query", "swap"]),
              st.integers(min_value=0, max_value=7)),
    min_size=4, max_size=12,
))
def test_cache_never_serves_stale_after_mutation(generation_pool, ops):
    """Property: under any swap/query interleaving over a pool of
    generations (back-swaps included), every served answer equals the
    *current* index's ground truth."""
    index = WarpingIndex.from_store(generation_pool[0])
    fresh = {store.root: WarpingIndex.from_store(store).engine()
             for store in generation_pool}
    service = QBHService.from_index(index, cache_size=64)
    pool = _hums(8, seed=33)
    try:
        for op, arg in ops:
            if op == "swap":
                index.swap_generation(
                    generation_pool[arg % len(generation_pool)])
            else:
                query = pool[arg]
                outcome = service.knn(query, 3)
                assert outcome.status == "ok"
                truth = fresh[index.store.root].ground_truth_knn(
                    index.normal_form.apply(query), 3
                )
                got_ids = [item for item, _ in outcome.results]
                want_ids = [item for item, _ in truth]
                assert got_ids == want_ids
                np.testing.assert_allclose(
                    [d for _, d in outcome.results],
                    [d for _, d in truth], atol=1e-9,
                )
    finally:
        service.close()


def test_cache_hit_is_byte_identical_to_recompute(mutation_corpus):
    """A hit replays the no-false-negative contract: identical bytes."""
    index = WarpingIndex(list(mutation_corpus[:20]), delta=0.1)
    service = QBHService.from_index(index, cache_size=16)
    query = mutation_corpus[3] + 0.05
    try:
        first = service.knn(query, 4)
        second = service.knn(query, 4)
        assert not first.from_cache and second.from_cache
        assert first.results == second.results  # same ids, same float bits
        for (_, a), (_, b) in zip(first.results, second.results):
            assert np.float64(a).tobytes() == np.float64(b).tobytes()
    finally:
        service.close()


def _assert_answers(outcome, fresh, hum):
    """*outcome* is the 3-NN answer of the index *fresh* to *hum*."""
    assert [item for item, _ in outcome.results] == \
        [item for item, _ in fresh.ground_truth_knn(hum, 3)]
    assert list(outcome.results) == fresh.cascade_knn_query(hum, 3)[0]


def test_cache_version_is_the_swap_counter(generation_pool):
    """Two stores from different roots are both generation 0 of their
    store, so only the index's own swap counter tells them apart: a
    swap to a same-ids store with other rows, and the swap back, must
    each miss the cache and answer from the live rows."""
    first, second = generation_pool[:2]
    assert first.generation == second.generation == 0
    assert first.ids == second.ids
    index = WarpingIndex.from_store(first)
    fresh = {store.root: WarpingIndex.from_store(store) for store in
             (first, second)}
    service = QBHService.from_index(index, cache_size=16)
    hum = _hums(1, seed=34)[0]
    try:
        assert not service.knn(hum, 3).from_cache
        assert service.knn(hum, 3).from_cache
        for store in (second, first):
            index.swap_generation(store)
            outcome = service.knn(hum, 3)
            assert outcome.ok and not outcome.from_cache
            _assert_answers(outcome, fresh[store.root], hum)
            assert service.knn(hum, 3).from_cache
        assert index.generation == 2
    finally:
        service.close()


def test_a_swap_between_engine_fetch_and_answer_wastes_the_entry(
        generation_pool):
    """A swap that lands after the engine was fetched must not file the
    old generation's answer under the new version: the service reads
    the version before it fetches the engine."""
    first, second = generation_pool[:2]
    index = WarpingIndex.from_store(first)
    fresh = WarpingIndex.from_store(second)
    engine = index.engine

    def engine_then_swap():
        fetched = engine()
        if index.store is first:
            index.swap_generation(second)
        return fetched

    index.engine = engine_then_swap
    service = QBHService.from_index(index, cache_size=16)
    hum = _hums(1, seed=35)[0]
    try:
        service.knn(hum, 3)  # answered from first, swapped under it
        outcome = service.knn(hum, 3)
        assert outcome.ok and not outcome.from_cache
        _assert_answers(outcome, fresh, hum)
    finally:
        service.close()

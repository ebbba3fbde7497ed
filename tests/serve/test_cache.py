"""Result cache: LRU/TTL mechanics and versioned invalidation.

The exactness-critical property is at the bottom: after *any* index
mutation, a cache probe must never serve the pre-mutation answer —
verified against the index's ground-truth oracle across a randomised
mutate/query interleaving (the invalidation-on-mutation property test
of the serving acceptance criteria).
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


@settings(max_examples=15, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["query", "insert", "remove"]),
              st.integers(min_value=0, max_value=7)),
    min_size=4, max_size=12,
))
def test_cache_never_serves_stale_after_mutation(mutation_corpus, ops):
    """Property: under any mutate/query interleaving, every served
    answer equals the *current* index's ground truth."""
    index = WarpingIndex(list(mutation_corpus[:20]), delta=0.1)
    service = QBHService.from_index(index, cache_size=64)
    rng = np.random.default_rng(33)
    pool = [mutation_corpus[i] + 0.1 * rng.normal(size=96) for i in range(8)]
    next_insert = 20
    try:
        for op, arg in ops:
            if op == "insert" and next_insert < len(mutation_corpus):
                index.insert(mutation_corpus[next_insert], next_insert)
                next_insert += 1
            elif op == "remove" and len(index) > 5:
                index.remove(index.ids[arg % len(index)])
            else:
                query = pool[arg]
                outcome = service.knn(query, 3)
                assert outcome.status == "ok"
                truth = index.engine().ground_truth_knn(
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

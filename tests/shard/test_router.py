"""ShardRouter: exact merging, stats re-merge, deadlines, lifecycle.

The router's whole claim is "N processes, same bytes": every result a
sharded fleet returns must be byte-identical to the single-engine
answer, and the merged :class:`CascadeStats` must read like a
partition of the single-engine counters.  Aborts and shutdown are
pinned alongside because they are the paths a load test never hits
deterministically.
"""

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.engine.errors import QueryAborted
from repro.obs.clock import monotonic_s
from repro.serve.loadgen import result_digest
from repro.shard import ShardError, ShardRouter, resolve_mp_context
from tests.conftest import run_concurrently


@pytest.fixture(scope="module")
def corpus():
    return random_walks(40, 48, seed=81)


@pytest.fixture(scope="module")
def reference(corpus):
    return QueryEngine(list(corpus), delta=0.1)


@pytest.fixture(scope="module")
def router(corpus, reference):
    with ShardRouter.from_engine(reference, shards=3) as router:
        yield router


@pytest.fixture(scope="module")
def queries(corpus):
    rng = np.random.default_rng(82)
    return [corpus[i] + 0.1 * rng.normal(size=corpus.shape[1])
            for i in range(6)]


class TestExactMerging:
    def test_knn_byte_identical(self, router, reference, queries):
        for query in queries:
            got, _ = router.knn(query, 5)
            want, _ = reference.knn(query, 5)
            assert result_digest(got) == result_digest(want)

    def test_range_byte_identical(self, router, reference, queries):
        for query in queries:
            got, _ = router.range_search(query, 5.0)
            want, _ = reference.range_search(query, 5.0)
            assert result_digest(got) == result_digest(want)

    def test_many_byte_identical(self, router, reference, queries):
        """Many callers at once: the router lock keeps every fan-out's
        replies its own."""
        got_all = run_concurrently(lambda q: router.knn(q, 4)[0], queries)
        for query, got in zip(queries, got_all):
            want, _ = reference.knn(query, 4)
            assert result_digest(got) == result_digest(want)
        got_all = run_concurrently(
            lambda q: router.range_search(q, 6.0)[0], queries
        )
        for query, got in zip(queries, got_all):
            want, _ = reference.range_search(query, 6.0)
            assert result_digest(got) == result_digest(want)

    def test_single_shard_equals_engine(self, corpus, reference, queries):
        with ShardRouter.from_engine(reference, shards=1) as single:
            assert single.n_shards == 1
            got, _ = single.knn(queries[0], 5)
        want, _ = reference.knn(queries[0], 5)
        assert result_digest(got) == result_digest(want)

    def test_shards_clamped_to_rows(self, reference):
        with ShardRouter.from_engine(reference, shards=1000) as wide:
            assert wide.n_shards == len(reference)


class TestStatsMerge:
    def test_merged_stats_partition_the_corpus(self, router, reference,
                                               corpus, queries):
        got, stats = router.knn(queries[0], 5)
        _, want = reference.knn(queries[0], 5)
        assert stats.corpus_size == len(corpus)
        assert [s.name for s in stats.stages] == [s.name for s in want.stages]
        # Stage 0 sees every row exactly once across the partition.
        assert stats.stages[0].candidates_in == want.stages[0].candidates_in
        assert stats.dtw_computations >= want.dtw_computations
        # `results` counts per-shard supersets (each shard's local
        # top-k), so it is >= the merged global answer's size.
        assert stats.results >= len(got)
        assert stats.total_time_s > 0
        assert stats.cpu_time_s >= 0

    def test_wall_clock_is_fanout_not_sum(self, router, queries):
        _, stats = router.knn(queries[0], 3)
        # cpu_time_s sums per-shard work (overlapping in real time);
        # total_time_s is the single fan-out's wall clock.
        assert stats.total_time_s > 0
        assert stats.cpu_time_s > 0


class TestDeadlinesAndAborts:
    def test_lapsed_deadline_aborts_before_fanout(self, router, queries):
        with pytest.raises(QueryAborted) as exc:
            router.knn(queries[0], 3, deadline_s=monotonic_s() - 1.0)
        assert exc.value.phase == "shard:fanout"

    def test_should_abort_is_polled(self, router, queries):
        with pytest.raises(QueryAborted):
            router.knn(queries[0], 3, should_abort=lambda: True)

    def test_no_deadline_serves_normally(self, router, reference, queries):
        got, _ = router.knn(queries[0], 3,
                            deadline_s=monotonic_s() + 60.0)
        want, _ = reference.knn(queries[0], 3)
        assert result_digest(got) == result_digest(want)


class TestValidationAndLifecycle:
    def test_parameter_validation(self, router, queries, reference):
        with pytest.raises(ValueError, match="k must be"):
            router.knn(queries[0], 0)
        with pytest.raises(ValueError, match="epsilon"):
            router.range_search(queries[0], -1.0)
        with pytest.raises(ValueError, match="shards"):
            ShardRouter.from_engine(reference, shards=0)

    def test_resolve_mp_context(self):
        assert resolve_mp_context("spawn").get_start_method() == "spawn"
        ctx = resolve_mp_context(None)
        assert ctx.get_start_method() in ("fork", "spawn")
        assert resolve_mp_context(ctx) is ctx

    def test_close_is_idempotent_and_final(self, reference, queries):
        router = ShardRouter.from_engine(reference, shards=2)
        router.close()
        router.close()
        with pytest.raises(ShardError, match="closed"):
            router.knn(queries[0], 3)

    def test_len_and_series_length(self, router, corpus):
        assert len(router) == corpus.shape[0]
        assert router.series_length == corpus.shape[1]

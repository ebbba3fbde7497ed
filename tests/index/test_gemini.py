"""Unit and integration tests for the GEMINI warping index."""

import numpy as np
import pytest

from repro.core.envelope_transforms import (
    KeoghPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
)
from repro.core.normal_form import NormalForm
from repro.core.transforms import DFTTransform
from repro.index.gemini import WarpingIndex


@pytest.fixture(scope="module")
def walks():
    rng = np.random.default_rng(77)
    return [np.cumsum(rng.normal(size=int(rng.integers(60, 140)))) for _ in range(150)]


@pytest.fixture(scope="module")
def built_index(walks):
    return WarpingIndex(
        walks, delta=0.1, normal_form=NormalForm(length=64), n_features=8,
        capacity=16,
    )


@pytest.fixture(scope="module")
def query():
    rng = np.random.default_rng(99)
    return np.cumsum(rng.normal(size=100))


class TestConstruction:
    def test_sizes(self, built_index):
        assert len(built_index) == 150
        assert built_index.feature_dim == 8
        assert built_index.normal_length == 64

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            WarpingIndex([], delta=0.1)

    def test_rejects_bad_index_kind(self, walks):
        with pytest.raises(ValueError, match="index_kind"):
            WarpingIndex(walks[:5], delta=0.1, index_kind="btree")

    def test_rejects_mismatched_transform(self, walks):
        env_t = KeoghPAAEnvelopeTransform(32, 4)
        with pytest.raises(ValueError, match="normal form"):
            WarpingIndex(
                walks[:5], delta=0.1, env_transform=env_t,
                normal_form=NormalForm(length=64),
            )

    def test_rejects_duplicate_ids(self, walks):
        with pytest.raises(ValueError, match="unique"):
            WarpingIndex(walks[:3], delta=0.1, ids=[1, 1, 2])

    def test_rejects_none_length(self, walks):
        with pytest.raises(ValueError, match="fixed normal-form length"):
            WarpingIndex(walks[:3], delta=0.1, normal_form=NormalForm(length=None))

    def test_custom_ids_in_results(self, walks):
        idx = WarpingIndex(
            walks[:10], delta=0.1, ids=[f"w{i}" for i in range(10)],
            normal_form=NormalForm(length=64),
        )
        results, _ = idx.range_query(walks[0], 100.0)
        assert all(isinstance(item, str) for item, _ in results)

    def test_normalized_accessor(self, built_index, walks):
        stored = built_index.normalized(0)
        assert stored.size == 64
        assert stored.mean() == pytest.approx(0.0, abs=1e-9)


class TestRangeQuery:
    @pytest.mark.parametrize("kind", ["rstar", "grid", "linear"])
    def test_exact_answers_all_backends(self, walks, query, kind):
        idx = WarpingIndex(
            walks, delta=0.1, normal_form=NormalForm(length=64),
            index_kind=kind, capacity=16,
        )
        for eps in (2.0, 5.0, 12.0):
            results, stats = idx.range_query(query, eps)
            truth = idx.ground_truth_range(query, eps)
            assert [i for i, _ in results] == [i for i, _ in truth]
            assert stats.results == len(truth)
            assert stats.candidates >= len(truth)  # no false negatives

    def test_self_query_returns_self_first(self, built_index, walks):
        results, _ = built_index.range_query(walks[7], 1e-9)
        assert results and results[0][0] == 7

    def test_results_sorted(self, built_index, query):
        results, _ = built_index.range_query(query, 15.0)
        dists = [d for _, d in results]
        assert dists == sorted(dists)

    def test_stats_counters_consistent(self, built_index, query):
        results, stats = built_index.range_query(query, 8.0)
        pruned = stats.extra.get("second_filter_pruned", 0)
        assert stats.dtw_computations + pruned == stats.candidates
        assert stats.results == len(results)
        assert 0.0 <= stats.precision <= 1.0

    def test_rejects_negative_epsilon(self, built_index, query):
        with pytest.raises(ValueError, match="epsilon"):
            built_index.range_query(query, -1.0)

    def test_tighter_transform_fewer_candidates(self, walks, query):
        """New_PAA (default) should retrieve no more candidates than
        Keogh_PAA at the same query."""
        kwargs = dict(delta=0.1, normal_form=NormalForm(length=64), capacity=16)
        new = WarpingIndex(walks, **kwargs)
        keogh = WarpingIndex(
            walks, env_transform=KeoghPAAEnvelopeTransform(64, 8), **kwargs
        )
        _, stats_new = new.range_query(query, 8.0)
        _, stats_keogh = keogh.range_query(query, 8.0)
        assert stats_new.candidates <= stats_keogh.candidates

    def test_dft_backend_also_exact(self, walks, query):
        idx = WarpingIndex(
            walks, delta=0.1,
            env_transform=SignSplitEnvelopeTransform(DFTTransform(64, 8)),
            normal_form=NormalForm(length=64),
        )
        results, _ = idx.range_query(query, 6.0)
        truth = idx.ground_truth_range(query, 6.0)
        assert [i for i, _ in results] == [i for i, _ in truth]


class TestKnnQuery:
    def test_matches_ground_truth_distances(self, built_index, query):
        got, stats = built_index.knn_query(query, 10)
        truth = built_index.ground_truth_knn(query, 10)
        assert len(got) == 10
        assert np.allclose([d for _, d in got], [d for _, d in truth])
        assert stats.candidates <= len(built_index)

    def test_k_one(self, built_index, walks):
        got, _ = built_index.knn_query(walks[33], 1)
        assert got[0][0] == 33
        assert got[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_k_exceeds_database(self, walks, query):
        idx = WarpingIndex(walks[:5], delta=0.1, normal_form=NormalForm(length=64))
        got, _ = idx.knn_query(query, 50)
        assert len(got) == 5

    def test_rejects_bad_k(self, built_index, query):
        with pytest.raises(ValueError, match="k must be"):
            built_index.knn_query(query, 0)

    def test_multistep_prunes(self, built_index, query):
        """The optimal multi-step algorithm must not refine everything."""
        _, stats = built_index.knn_query(query, 5)
        assert stats.dtw_computations < len(built_index)

"""Tests for the k-means cluster index backend."""

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.datasets.generators import random_walks
from repro.index.cluster import ClusterIndex
from repro.index.gemini import WarpingIndex


def brute(points, lo, hi, radius):
    gap = np.maximum(lo - points, 0.0) + np.maximum(points - hi, 0.0)
    return set(np.nonzero(np.sqrt(np.sum(gap * gap, axis=1)) <= radius)[0].tolist())


class TestConstruction:
    def test_default_cluster_count(self, rng):
        index = ClusterIndex(rng.normal(size=(400, 4)))
        assert 2 <= index.cluster_count <= 20  # ~sqrt(400)
        assert len(index) == 400

    def test_empty(self):
        index = ClusterIndex(np.zeros((0, 3)))
        assert len(index) == 0
        assert index.range_search(np.zeros(3), np.zeros(3), 1.0) == []

    def test_single_point(self):
        index = ClusterIndex(np.ones((1, 2)))
        assert index.range_search(np.ones(2), np.ones(2), 0.0) == [0]

    def test_deterministic(self, rng):
        pts = rng.normal(size=(200, 3))
        a = ClusterIndex(pts, seed=4)
        b = ClusterIndex(pts, seed=4)
        q = np.zeros(3)
        assert sorted(a.range_search(q, q, 2.0)) == sorted(
            b.range_search(q, q, 2.0)
        )

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            ClusterIndex(np.zeros(4))
        with pytest.raises(ValueError, match="ids"):
            ClusterIndex(np.zeros((3, 2)), ids=[1])


class TestQueries:
    def test_range_matches_brute_force(self, rng):
        pts = rng.normal(size=(500, 4))
        index = ClusterIndex(pts)
        for _ in range(5):
            q = rng.normal(size=4)
            for radius in (0.5, 1.5, 3.0):
                assert set(index.range_search(q, q, radius)) == brute(
                    pts, q, q, radius
                )

    def test_rectangle_query(self, rng):
        pts = rng.normal(size=(300, 3))
        index = ClusterIndex(pts)
        lo = np.array([-0.5, -0.3, 0.0])
        hi = np.array([0.5, 0.6, 0.4])
        assert set(index.range_search(lo, hi, 0.7)) == brute(pts, lo, hi, 0.7)

    def test_nearest_sorted_and_complete(self, rng):
        pts = rng.normal(size=(150, 3))
        index = ClusterIndex(pts)
        q = rng.normal(size=3)
        got = list(index.nearest(q, q))
        assert len(got) == 150
        dists = [d for d, _ in got]
        assert dists == sorted(dists)
        assert np.allclose(
            np.sort(dists), np.sort(np.linalg.norm(pts - q, axis=1))
        )

    def test_pruning_saves_pages_on_clustered_data(self, rng):
        clusters = np.concatenate(
            [rng.normal(c, 0.2, size=(200, 4)) for c in (-5.0, 0.0, 5.0)]
        )
        index = ClusterIndex(clusters)
        index.reset_stats()
        q = np.full(4, 5.0)
        index.range_search(q, q, 0.5)
        assert index.page_accesses < index.cluster_count + 1

    def test_manhattan_metric(self, rng):
        pts = rng.normal(size=(200, 3))
        index = ClusterIndex(pts)
        q = rng.normal(size=3)
        got = set(index.range_search(q, q, 2.0, metric="manhattan"))
        expected = set(
            np.nonzero(np.sum(np.abs(pts - q), axis=1) <= 2.0)[0].tolist()
        )
        assert got == expected


class TestAsWarpingBackend:
    def test_exact_answers(self):
        walks = list(random_walks(200, 96, seed=44))
        index = WarpingIndex(
            walks, delta=0.1, index_kind="cluster",
            normal_form=NormalForm(length=64),
        )
        query = random_walks(1, 96, seed=45)[0]
        for eps in (3.0, 8.0):
            results, _ = index.range_query(query, eps)
            truth = index.ground_truth_range(query, eps)
            assert [i for i, _ in results] == [i for i, _ in truth]
        knn, _ = index.knn_query(query, 5)
        ktruth = index.ground_truth_knn(query, 5)
        assert np.allclose([d for _, d in knn], [d for _, d in ktruth])

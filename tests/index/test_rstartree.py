"""Unit tests for the R*-tree."""

import numpy as np
import pytest

from repro.index.rstartree import RStarTree


def brute_range(points, q, radius):
    return set(np.nonzero(np.linalg.norm(points - q, axis=1) <= radius)[0].tolist())


def brute_rect_range(points, lo, hi, radius):
    gap = np.maximum(lo - points, 0.0) + np.maximum(points - hi, 0.0)
    return set(np.nonzero(np.sqrt(np.sum(gap * gap, axis=1)) <= radius)[0].tolist())


class TestConstruction:
    def test_empty_tree(self):
        tree = RStarTree(4)
        assert len(tree) == 0
        assert tree.range_search(np.zeros(4), np.zeros(4), 1.0) == []

    def test_insert_builds_valid_tree(self, rng):
        tree = RStarTree(3, capacity=8)
        pts = rng.normal(size=(300, 3))
        for i, p in enumerate(pts):
            tree.insert(p, i)
        assert len(tree) == 300
        tree.check_invariants()

    def test_bulk_load_valid(self, rng):
        pts = rng.normal(size=(1000, 5))
        tree = RStarTree.bulk_load(pts, capacity=20)
        assert len(tree) == 1000
        tree.check_invariants()

    def test_bulk_load_empty(self):
        tree = RStarTree.bulk_load(np.zeros((0, 4)))
        assert len(tree) == 0

    def test_bulk_load_single_point(self):
        tree = RStarTree.bulk_load(np.ones((1, 2)))
        assert len(tree) == 1
        assert tree.range_search(np.ones(2), np.ones(2), 0.0) == [0]

    def test_bulk_load_custom_ids(self, rng):
        pts = rng.normal(size=(10, 2))
        tree = RStarTree.bulk_load(pts, ids=[f"s{i}" for i in range(10)])
        hits = tree.range_search(pts[3], pts[3], 1e-9)
        assert "s3" in hits

    def test_insert_rejects_wrong_dim(self):
        tree = RStarTree(3)
        with pytest.raises(ValueError, match="shape"):
            tree.insert(np.zeros(4), 0)

    def test_duplicate_points_all_kept(self):
        tree = RStarTree(2, capacity=4)
        for i in range(20):
            tree.insert(np.array([1.0, 1.0]), i)
        hits = tree.range_search(np.ones(2), np.ones(2), 0.0)
        assert sorted(hits) == list(range(20))
        tree.check_invariants()

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match=">= 4"):
            RStarTree(2, capacity=2)
        with pytest.raises(ValueError, match="dimension"):
            RStarTree(0)
        with pytest.raises(ValueError, match="min fill"):
            RStarTree(2, min_fill=0.9)

    def test_height_grows(self, rng):
        tree = RStarTree.bulk_load(rng.normal(size=(500, 2)), capacity=8)
        assert tree.height >= 3


class TestRangeSearch:
    @pytest.mark.parametrize("builder", ["insert", "bulk"])
    def test_point_query_matches_brute_force(self, rng, builder):
        pts = rng.normal(size=(400, 4))
        if builder == "bulk":
            tree = RStarTree.bulk_load(pts, capacity=16)
        else:
            tree = RStarTree(4, capacity=16)
            for i, p in enumerate(pts):
                tree.insert(p, i)
        for _ in range(5):
            q = rng.normal(size=4)
            for radius in (0.5, 1.0, 2.5):
                assert set(tree.range_search(q, q, radius)) == brute_range(
                    pts, q, radius
                )

    def test_rectangle_query_matches_brute_force(self, rng):
        pts = rng.normal(size=(300, 3))
        tree = RStarTree.bulk_load(pts, capacity=10)
        lo = np.array([-0.5, -0.5, -0.5])
        hi = np.array([0.5, 0.7, 0.2])
        for radius in (0.0, 0.4, 1.5):
            assert set(tree.range_search(lo, hi, radius)) == brute_rect_range(
                pts, lo, hi, radius
            )

    def test_zero_radius_rectangle_contains(self, rng):
        pts = rng.uniform(-1, 1, size=(100, 2))
        tree = RStarTree.bulk_load(pts, capacity=8)
        lo, hi = np.array([-0.5, -0.5]), np.array([0.5, 0.5])
        expected = set(
            np.nonzero(np.all((pts >= lo) & (pts <= hi), axis=1))[0].tolist()
        )
        assert set(tree.range_search(lo, hi, 0.0)) == expected

    def test_page_accesses_counted(self, rng):
        pts = rng.normal(size=(500, 3))
        tree = RStarTree.bulk_load(pts, capacity=10)
        tree.reset_stats()
        tree.range_search(np.zeros(3), np.zeros(3), 0.1)
        narrow = tree.page_accesses
        tree.reset_stats()
        tree.range_search(np.zeros(3), np.zeros(3), 10.0)
        wide = tree.page_accesses
        assert 0 < narrow < wide

    def test_rejects_bad_rectangle(self, rng):
        tree = RStarTree.bulk_load(rng.normal(size=(10, 2)))
        with pytest.raises(ValueError, match="lower > upper"):
            tree.range_search(np.ones(2), np.zeros(2), 1.0)
        with pytest.raises(ValueError, match="radius"):
            tree.range_search(np.zeros(2), np.zeros(2), -1.0)


class TestNearest:
    def test_order_matches_brute_force(self, rng):
        pts = rng.normal(size=(200, 3))
        tree = RStarTree.bulk_load(pts, capacity=8)
        q = rng.normal(size=3)
        expected = np.sort(np.linalg.norm(pts - q, axis=1))
        got = [d for d, _ in tree.nearest(q, q)]
        assert np.allclose(got, expected)

    def test_incremental_stops_early_saves_pages(self, rng):
        pts = rng.normal(size=(2000, 4))
        tree = RStarTree.bulk_load(pts, capacity=20)
        tree.reset_stats()
        consumed = []
        for dist, item in tree.nearest(np.zeros(4), np.zeros(4)):
            consumed.append(item)
            if len(consumed) == 5:
                break
        partial = tree.page_accesses
        tree.reset_stats()
        list(tree.nearest(np.zeros(4), np.zeros(4)))
        full = tree.page_accesses
        assert partial < full

    def test_rectangle_nearest(self, rng):
        pts = rng.normal(size=(100, 2))
        tree = RStarTree.bulk_load(pts, capacity=8)
        lo, hi = np.array([-0.2, -0.2]), np.array([0.2, 0.2])
        gap = np.maximum(lo - pts, 0.0) + np.maximum(pts - hi, 0.0)
        expected = np.sort(np.sqrt(np.sum(gap * gap, axis=1)))
        got = [d for d, _ in tree.nearest(lo, hi)]
        assert np.allclose(got, expected)

    def test_items_iterates_everything(self, rng):
        pts = rng.normal(size=(50, 2))
        tree = RStarTree.bulk_load(pts)
        assert sorted(i for _, i in tree.items()) == list(range(50))


class TestReinsertionAndSplits:
    def test_sequential_inserts_trigger_splits(self, rng):
        """Sorted inserts are the worst case for naive R-trees."""
        tree = RStarTree(2, capacity=6)
        for i in range(200):
            tree.insert(np.array([float(i), float(i % 7)]), i)
        tree.check_invariants()
        assert tree.height >= 3
        q = np.array([100.0, 3.0])
        assert set(tree.range_search(q, q, 1.5)) == {
            i for i in range(200)
            if (i - 100) ** 2 + (i % 7 - 3) ** 2 <= 1.5**2
        }

    def test_clustered_data(self, rng):
        tree = RStarTree(3, capacity=8)
        pts = np.concatenate(
            [rng.normal(c, 0.1, size=(100, 3)) for c in (-5.0, 0.0, 5.0)]
        )
        for i, p in enumerate(pts):
            tree.insert(p, i)
        tree.check_invariants()
        hits = tree.range_search(np.full(3, 5.0), np.full(3, 5.0), 1.0)
        assert set(hits) == brute_range(pts, np.full(3, 5.0), 1.0)


class TestContract:
    """What the GEMINI layer relies on, on a bulk-loaded 4-d tree: range
    and nearest answers against brute force, both metrics, and page
    accounting that accumulates until reset."""

    DIM = 4

    def build(self, points):
        return RStarTree.bulk_load(points, capacity=8)

    def test_point_range(self, rng):
        pts = rng.normal(size=(250, self.DIM))
        index = self.build(pts)
        for _ in range(4):
            q = rng.normal(size=self.DIM)
            for radius in (0.5, 1.5):
                assert set(index.range_search(q, q, radius)) == (
                    brute_rect_range(pts, q, q, radius))

    def test_rect_range_manhattan(self, rng):
        pts = rng.normal(size=(200, self.DIM))
        index = self.build(pts)
        lo = np.full(self.DIM, -0.4)
        hi = np.full(self.DIM, 0.4)
        got = set(index.range_search(lo, hi, 1.0, metric="manhattan"))
        gap = np.maximum(lo - pts, 0.0) + np.maximum(pts - hi, 0.0)
        assert got == set(np.nonzero(np.sum(gap, axis=1) <= 1.0)[0].tolist())

    def test_nearest_order_and_completeness(self, rng):
        pts = rng.normal(size=(120, self.DIM))
        index = self.build(pts)
        q = rng.normal(size=self.DIM)
        ranked = list(index.nearest(q, q))
        assert len(ranked) == 120
        dists = [d for d, _ in ranked]
        assert all(a <= b + 1e-9 for a, b in zip(dists, dists[1:]))
        assert np.allclose(
            np.sort(dists), np.sort(np.linalg.norm(pts - q, axis=1)),
            atol=1e-9,
        )

    def test_page_accesses_accumulate_and_reset(self, rng):
        index = self.build(rng.normal(size=(100, self.DIM)))
        origin = np.zeros(self.DIM)
        index.reset_stats()
        assert index.page_accesses == 0
        index.range_search(origin, origin, 1.0)
        first = index.page_accesses
        assert first > 0
        index.range_search(origin, origin, 1.0)
        assert index.page_accesses == 2 * first
        index.reset_stats()
        assert index.page_accesses == 0

    def test_rejects_bad_metric(self, rng):
        index = self.build(rng.normal(size=(10, self.DIM)))
        with pytest.raises(ValueError, match="metric"):
            index.range_search(np.zeros(self.DIM), np.zeros(self.DIM), 1.0,
                               metric="chebyshev")

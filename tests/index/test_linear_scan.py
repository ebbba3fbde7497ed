"""Unit tests for the linear-scan baseline."""

import math

import numpy as np
import pytest

from repro.index.linear_scan import LinearScan


class TestLinearScan:
    def test_range_matches_definition(self, rng):
        pts = rng.normal(size=(200, 3))
        scan = LinearScan(pts)
        q = rng.normal(size=3)
        got = set(scan.range_search(q, q, 1.0))
        expected = set(
            np.nonzero(np.linalg.norm(pts - q, axis=1) <= 1.0)[0].tolist()
        )
        assert got == expected

    def test_page_accesses_full_scan(self, rng):
        pts = rng.normal(size=(230, 2))
        scan = LinearScan(pts, capacity=50)
        scan.range_search(np.zeros(2), np.zeros(2), 1.0)
        assert scan.page_accesses == math.ceil(230 / 50)

    def test_nearest_sorted_and_complete(self, rng):
        pts = rng.normal(size=(50, 2))
        scan = LinearScan(pts)
        got = list(scan.nearest(np.zeros(2), np.zeros(2)))
        assert len(got) == 50
        dists = [d for d, _ in got]
        assert dists == sorted(dists)

    def test_rectangle_distance(self, rng):
        pts = rng.normal(size=(100, 2))
        scan = LinearScan(pts)
        lo, hi = np.array([-0.3, -0.3]), np.array([0.3, 0.3])
        got = set(scan.range_search(lo, hi, 0.2))
        gap = np.maximum(lo - pts, 0.0) + np.maximum(pts - hi, 0.0)
        expected = set(
            np.nonzero(np.sqrt(np.sum(gap * gap, axis=1)) <= 0.2)[0].tolist()
        )
        assert got == expected

    def test_custom_ids(self, rng):
        pts = rng.normal(size=(5, 2))
        scan = LinearScan(pts, ids=["v", "w", "x", "y", "z"])
        assert scan.range_search(pts[2], pts[2], 1e-12) == ["x"]

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            LinearScan(np.zeros(3))
        with pytest.raises(ValueError, match="capacity"):
            LinearScan(np.zeros((2, 2)), capacity=0)
        with pytest.raises(ValueError, match="ids"):
            LinearScan(np.zeros((3, 2)), ids=[1, 2])

    def test_reset_stats(self, rng):
        scan = LinearScan(rng.normal(size=(10, 2)))
        scan.range_search(np.zeros(2), np.zeros(2), 1.0)
        assert scan.page_accesses > 0
        scan.reset_stats()
        assert scan.page_accesses == 0
        assert scan.points_scanned == 0


class TestStatsLifecycle:
    """Counters reflect queries *issued* since the last reset_stats()."""

    def make_scan(self, rng, m=100, capacity=10):
        return LinearScan(rng.normal(size=(m, 2)), capacity=capacity)

    def test_range_search_counts_pages_and_points(self, rng):
        scan = self.make_scan(rng)
        scan.range_search(np.zeros(2), np.zeros(2), 1.0)
        assert scan.page_accesses == 10
        assert scan.points_scanned == 100
        scan.range_search(np.zeros(2), np.zeros(2), 1.0)
        assert scan.page_accesses == 20
        assert scan.points_scanned == 200

    def test_nearest_accounts_eagerly_at_call_time(self, rng):
        """The scan is charged when the query is issued, not consumed."""
        scan = self.make_scan(rng)
        results = scan.nearest(np.zeros(2), np.zeros(2))
        assert scan.page_accesses == 10
        assert scan.points_scanned == 100
        # Consuming the (already materialised) results adds nothing.
        assert len(list(results)) == 100
        assert scan.page_accesses == 10
        assert scan.points_scanned == 100

    def test_reset_between_issue_and_consume_stays_zero(self, rng):
        """A query issued before reset_stats() never leaks counters
        into the post-reset measurement window."""
        scan = self.make_scan(rng)
        results = scan.nearest(np.zeros(2), np.zeros(2))
        scan.reset_stats()
        list(results)  # draining the old query is free
        assert scan.page_accesses == 0
        assert scan.points_scanned == 0

    def test_partial_consumption_still_counts_full_scan(self, rng):
        """A linear scan reads everything whatever the consumer takes."""
        scan = self.make_scan(rng)
        results = scan.nearest(np.zeros(2), np.zeros(2))
        next(results)
        assert scan.page_accesses == 10
        assert scan.points_scanned == 100

"""Backend contract: all four index backends behave identically.

A property suite parametrised over every backend, checking the full
interface contract — range/nearest correctness against brute force,
metric support, stats accounting — on random point sets.  Any new backend registered with
``WarpingIndex`` should be added here and pass unchanged.
"""

import numpy as np
import pytest

from repro.index.cluster import ClusterIndex
from repro.index.gridfile import GridFile
from repro.index.linear_scan import LinearScan
from repro.index.rstartree import RStarTree

DIM = 4


def build(kind: str, points, ids=None):
    if kind == "rstar":
        return RStarTree.bulk_load(points, ids, capacity=8)
    if kind == "grid":
        return GridFile(points, ids, resolution=4)
    if kind == "cluster":
        return ClusterIndex(points, ids)
    if kind == "linear":
        return LinearScan(points, ids)
    raise AssertionError(kind)


BACKENDS = ("rstar", "grid", "cluster", "linear")


def brute(points, lo, hi, radius, manhattan=False):
    gap = np.maximum(lo - points, 0.0) + np.maximum(points - hi, 0.0)
    if manhattan:
        dist = np.sum(gap, axis=1)
    else:
        dist = np.sqrt(np.sum(gap * gap, axis=1))
    return set(np.nonzero(dist <= radius)[0].tolist())


@pytest.mark.parametrize("kind", BACKENDS)
class TestContract:
    def test_point_range(self, kind, rng):
        pts = rng.normal(size=(250, DIM))
        index = build(kind, pts)
        for _ in range(4):
            q = rng.normal(size=DIM)
            for radius in (0.5, 1.5):
                assert set(index.range_search(q, q, radius)) == brute(
                    pts, q, q, radius
                )

    def test_rect_range_manhattan(self, kind, rng):
        pts = rng.normal(size=(200, DIM))
        index = build(kind, pts)
        lo = np.full(DIM, -0.4)
        hi = np.full(DIM, 0.4)
        got = set(index.range_search(lo, hi, 1.0, metric="manhattan"))
        assert got == brute(pts, lo, hi, 1.0, manhattan=True)

    def test_nearest_order_and_completeness(self, kind, rng):
        pts = rng.normal(size=(120, DIM))
        index = build(kind, pts)
        q = rng.normal(size=DIM)
        ranked = list(index.nearest(q, q))
        assert len(ranked) == 120
        dists = [d for d, _ in ranked]
        assert all(a <= b + 1e-9 for a, b in zip(dists, dists[1:]))
        assert np.allclose(
            np.sort(dists), np.sort(np.linalg.norm(pts - q, axis=1)),
            atol=1e-9,
        )

    def test_page_accesses_accumulate_and_reset(self, kind, rng):
        pts = rng.normal(size=(100, DIM))
        index = build(kind, pts)
        index.reset_stats()
        assert index.page_accesses == 0
        index.range_search(np.zeros(DIM), np.zeros(DIM), 1.0)
        first = index.page_accesses
        assert first > 0
        index.range_search(np.zeros(DIM), np.zeros(DIM), 1.0)
        assert index.page_accesses == 2 * first
        index.reset_stats()
        assert index.page_accesses == 0

    def test_rejects_bad_metric(self, kind, rng):
        index = build(kind, rng.normal(size=(10, DIM)))
        with pytest.raises(ValueError, match="metric"):
            index.range_search(np.zeros(DIM), np.zeros(DIM), 1.0,
                               metric="chebyshev")

"""Property-based tests for the index layer.

The central guarantee — range queries over the R*-tree return exactly
the brute-force answer, for arbitrary point sets and query rectangles —
is checked with hypothesis-generated inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.index.rstartree import RStarTree

coord = st.floats(min_value=-10, max_value=10, allow_nan=False, width=32)


def point_sets(dim=3, max_points=60):
    return st.integers(1, max_points).flatmap(
        lambda m: arrays(np.float64, (m, dim), elements=coord)
    )


def brute(points, lo, hi, radius):
    """Exact reference: identical arithmetic to the index internals."""
    gap = np.maximum(lo - points, 0.0) + np.maximum(points - hi, 0.0)
    return set(np.nonzero(np.sum(gap * gap, axis=1) <= radius * radius)[0].tolist())


@settings(max_examples=60, deadline=None)
@given(point_sets(), arrays(np.float64, 3, elements=coord),
       st.floats(0, 5, allow_nan=False))
def test_point_range_query_exact(points, q, radius):
    expected = brute(points, q, q, radius)
    index = RStarTree.bulk_load(points, capacity=4)
    assert set(index.range_search(q, q, radius)) == expected


@settings(max_examples=60, deadline=None)
@given(point_sets(), arrays(np.float64, 3, elements=coord),
       arrays(np.float64, 3, elements=st.floats(0, 3, allow_nan=False)),
       st.floats(0, 3, allow_nan=False))
def test_rect_range_query_exact(points, lo, extent, radius):
    hi = lo + extent
    expected = brute(points, lo, hi, radius)
    index = RStarTree.bulk_load(points, capacity=4)
    assert set(index.range_search(lo, hi, radius)) == expected


@settings(max_examples=40, deadline=None)
@given(point_sets(max_points=40), arrays(np.float64, 3, elements=coord))
def test_nearest_is_sorted_and_complete(points, q):
    index = RStarTree.bulk_load(points, capacity=4)
    ranked = list(index.nearest(q, q))
    assert len(ranked) == points.shape[0]
    dists = [d for d, _ in ranked]
    assert all(a <= b + 1e-9 for a, b in zip(dists, dists[1:]))
    expected = np.sort(np.linalg.norm(points - q, axis=1))
    assert np.allclose(np.sort(dists), expected, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(point_sets(max_points=50))
def test_rstar_insert_invariants(points):
    tree = RStarTree(3, capacity=4)
    for i, p in enumerate(points):
        tree.insert(p, i)
    tree.check_invariants()

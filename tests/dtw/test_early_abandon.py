"""Regression tests for early-abandoning DTW.

The contract the filter cascade's refinement phase relies on:

* ``upper_bound >= true distance``  →  never abandons, returns the
  exact distance (row minima never exceed the final cost, so a bound
  at or above the answer cannot fire).
* ``upper_bound <  true distance``  →  returns ``inf`` (abandoned) or
  the exact distance — **never** a corrupted finite value.
* Abandonment is sound: a returned ``inf`` implies the true distance
  really exceeds the bound ("never abandons below the true
  best-so-far").
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dtw.distance import (
    dtw_distance,
    ldtw_distance,
    ldtw_distance_batch,
)

N_PAIRS = 50
LENGTH = 64
BAND = 6


def _pairs(seed=1234):
    rng = np.random.default_rng(seed)
    for _ in range(N_PAIRS):
        x = np.cumsum(rng.normal(size=LENGTH))
        y = np.cumsum(rng.normal(size=LENGTH))
        yield x, y


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
class TestLdtwEarlyAbandon:
    def test_bound_at_distance_is_never_a_wrong_finite_value(self, metric):
        """A bound equal to the distance never abandons: the euclidean
        bound is squared internally, and that square is rounded up so
        the ulps lost to the square and to the final root cannot make
        the row's cost exceed it."""
        for x, y in _pairs():
            d = ldtw_distance(x, y, BAND, metric=metric)
            got = ldtw_distance(x, y, BAND, upper_bound=d, metric=metric)
            assert got == d

    def test_bound_with_guard_band_never_abandons(self, metric):
        for x, y in _pairs():
            d = ldtw_distance(x, y, BAND, metric=metric)
            got = ldtw_distance(x, y, BAND, upper_bound=d + 1e-9,
                                metric=metric)
            assert got == pytest.approx(d, abs=1e-12)

    def test_bound_above_distance_returns_exact(self, metric):
        for x, y in _pairs():
            d = ldtw_distance(x, y, BAND, metric=metric)
            for slack in (1e-9, 0.5, 10.0, math.inf):
                got = ldtw_distance(
                    x, y, BAND, upper_bound=d + slack, metric=metric
                )
                assert got == pytest.approx(d, abs=1e-12)

    def test_bound_below_distance_is_inf_or_exact(self, metric):
        """A tight bound may or may not abandon, but can never yield a
        wrong finite distance."""
        abandoned = 0
        for x, y in _pairs():
            d = ldtw_distance(x, y, BAND, metric=metric)
            for fraction in (0.25, 0.5, 0.9, 0.999):
                got = ldtw_distance(
                    x, y, BAND, upper_bound=fraction * d, metric=metric
                )
                if math.isinf(got):
                    abandoned += 1
                else:
                    assert got == pytest.approx(d, abs=1e-12)
        # The mechanism must actually fire on these 200 cases.
        assert abandoned > 0

    def test_abandonment_is_sound_across_cutoff_grid(self, metric):
        """inf is only ever returned when the true distance exceeds
        the cutoff — abandoning never loses a qualifying candidate."""
        for x, y in _pairs(seed=77):
            d = ldtw_distance(x, y, BAND, metric=metric)
            for cutoff in np.linspace(0.0, 1.5 * d, 7):
                got = ldtw_distance(
                    x, y, BAND, upper_bound=cutoff, metric=metric
                )
                if math.isinf(got):
                    assert d > cutoff
                else:
                    assert got == pytest.approx(d, abs=1e-12)

    def test_zero_bound_on_identical_series(self, metric):
        x = np.sin(np.linspace(0, 6, LENGTH))
        got = ldtw_distance(x, x.copy(), BAND, upper_bound=0.0,
                            metric=metric)
        assert got == 0.0


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
class TestDtwEarlyAbandon:
    """Same contract for the unconstrained dtw_distance wrapper."""

    def test_bound_at_and_above_distance_is_exact(self, metric):
        for x, y in _pairs(seed=5):
            d = dtw_distance(x, y, metric=metric)
            assert dtw_distance(
                x, y, upper_bound=d, metric=metric
            ) == pytest.approx(d, abs=1e-12)
            assert dtw_distance(
                x, y, upper_bound=2 * d + 1, metric=metric
            ) == pytest.approx(d, abs=1e-12)

    def test_bound_below_distance_is_inf_or_exact(self, metric):
        for x, y in _pairs(seed=6):
            d = dtw_distance(x, y, metric=metric)
            got = dtw_distance(x, y, upper_bound=0.5 * d, metric=metric)
            assert math.isinf(got) or got == pytest.approx(d, abs=1e-12)


@pytest.mark.parametrize("kernel", ["vectorized", "scalar"])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_row_at_exactly_epsilon_is_in_the_range_answer(kernel, metric):
    """epsilon set to a row's own distance keeps the row in the answer.

    The refine cutoff is formed in cost space; ``fl(epsilon**2)`` alone
    can fall below the cost of a row whose distance is exactly epsilon
    (about 1 case in 20 here, before the cutoff was rounded up).  Each
    kernel — the batch (``vectorized``) and the single-pair row loop
    (``scalar``) — keeps the row at the same cutoff.
    """
    from repro.engine import QueryEngine

    rng = np.random.default_rng(400)
    corpus = np.cumsum(rng.normal(size=(400, LENGTH)), axis=1)
    engine = QueryEngine(corpus, band=BAND, metric=metric)
    for i in range(20):
        query = corpus[i] + 0.5 * rng.normal(size=LENGTH)
        for row, dist in engine.ground_truth(query, k=5):
            results, _ = engine.search(query, epsilon=dist)
            assert row in [item for item, _ in results]
            if kernel == "scalar":
                got = ldtw_distance(query, corpus[row], BAND, metric=metric,
                                    upper_bound=dist)
            else:
                got = ldtw_distance_batch(query, corpus[row][None], BAND,
                                          metric=metric, upper_bound=dist)[0]
            assert got == dist


class TestEngineRefinementUsesSoundAbandoning:
    """End to end: engine k-NN distances survive independent
    recomputation even though refinement abandons aggressively."""

    def test_knn_distances_are_exact(self):
        from repro.engine import QueryEngine

        rng = np.random.default_rng(321)
        corpus = np.cumsum(rng.normal(size=(120, LENGTH)), axis=1)
        query = corpus[11] + 0.3 * rng.normal(size=LENGTH)
        engine = QueryEngine(corpus, band=BAND)
        results, stats = engine.knn(query, 8)
        assert stats.dtw_abandoned >= 0
        for row, dist in results:
            plain = ldtw_distance(query, corpus[int(row)], BAND)
            assert dist == pytest.approx(plain, abs=1e-9)

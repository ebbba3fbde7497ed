"""Unit tests for repro.core.envelope."""

import numpy as np
import pytest

from repro.core.envelope import (
    Envelope,
    batch_envelope,
    envelope_distance,
    k_envelope,
    k_to_warping_width,
    warping_width_to_k,
)


def naive_env(x, k):
    """Reference O(nk) envelope for cross-checking."""
    n = len(x)
    lower = [min(x[max(0, i - k) : min(n, i + k + 1)]) for i in range(n)]
    upper = [max(x[max(0, i - k) : min(n, i + k + 1)]) for i in range(n)]
    return np.array(lower), np.array(upper)


def assert_matches_naive(rows, k):
    """``batch_envelope`` of every row and ``k_envelope`` of each row
    equal the naive window, bit for bit and in the rows' dtype."""
    lower, upper = batch_envelope(rows, k)
    assert lower.dtype == upper.dtype == rows.dtype
    for row, lo_row, hi_row in zip(rows, lower, upper):
        lo, hi = naive_env(row, k)
        assert np.array_equal(lo_row, lo) and np.array_equal(hi_row, hi)
        env = k_envelope(row, k)
        assert np.array_equal(env.lower, lo) and np.array_equal(env.upper, hi)


class TestSlidingExtrema:
    def test_matches_naive_small(self):
        x = np.array([[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]])
        assert_matches_naive(x, 2)

    def test_matches_naive_random(self, rng):
        for n in (1, 2, 5, 50, 128):
            for k in (0, 1, 3, 6, 7, 20, 127):
                assert_matches_naive(rng.normal(size=(4, n)), k)
                assert_matches_naive(
                    rng.normal(size=(4, n)).astype(np.float32), k)

    def test_k_zero_is_copy(self, rng):
        rows = rng.normal(size=(3, 10))
        lower, upper = batch_envelope(rows, 0)
        assert np.array_equal(lower, rows) and np.array_equal(upper, rows)
        lower[0, 0] = upper[0, 1] = 99.0  # must not alias the input
        assert 99.0 not in rows
        x = rows[0].copy()
        env = k_envelope(x, 0)
        env.upper[0] = 99.0
        assert x[0] != 99.0

    def test_k_larger_than_series(self, rng):
        rows = rng.normal(size=(3, 5)).astype(np.float32)
        lower, upper = batch_envelope(rows, 100)
        assert np.all(upper == rows.max(axis=1, keepdims=True))
        assert np.all(lower == rows.min(axis=1, keepdims=True))
        env = k_envelope(rows[0], 100)
        assert np.all(env.upper == rows[0].max())
        assert np.all(env.lower == rows[0].min())
        lower, upper = batch_envelope(np.array([[2.5]]), 7)
        assert lower.tolist() == upper.tolist() == [[2.5]]

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match=">= 0"):
            k_envelope([1.0], -1)
        with pytest.raises(ValueError, match=">= 0"):
            batch_envelope(np.ones((2, 3)), -1)


class TestEnvelope:
    def test_contains_the_series(self, rng):
        x = rng.normal(size=30)
        env = k_envelope(x, 4)
        assert env.contains(x)

    def test_contains_rejects_outside(self):
        env = Envelope(lower=np.zeros(3), upper=np.ones(3))
        assert not env.contains([0.5, 2.0, 0.5])

    def test_contains_rejects_wrong_length(self):
        env = Envelope(lower=np.zeros(3), upper=np.ones(3))
        assert not env.contains([0.5, 0.5])

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError, match="lower envelope exceeds"):
            Envelope(lower=np.ones(2), upper=np.zeros(2))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            Envelope(lower=np.zeros(2), upper=np.ones(3))

    def test_width(self):
        env = Envelope(lower=np.array([0.0, 1.0]), upper=np.array([2.0, 1.5]))
        assert env.width().tolist() == [2.0, 0.5]

    def test_clip_projects_onto_band(self):
        env = Envelope(lower=np.zeros(3), upper=np.ones(3))
        out = env.clip([-1.0, 0.5, 2.0])
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_clip_length_mismatch(self):
        env = Envelope(lower=np.zeros(3), upper=np.ones(3))
        with pytest.raises(ValueError, match="does not match"):
            env.clip([0.0, 0.0])

    def test_envelope_widens_with_k(self, rng):
        x = rng.normal(size=40)
        e1 = k_envelope(x, 1)
        e5 = k_envelope(x, 5)
        assert np.all(e5.lower <= e1.lower)
        assert np.all(e5.upper >= e1.upper)


class TestEnvelopeDistance:
    def test_zero_inside(self, rng):
        x = rng.normal(size=20)
        env = k_envelope(x, 3)
        assert envelope_distance(x, env) == 0.0

    def test_matches_clip_distance(self, rng):
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        env = k_envelope(y, 2)
        expected = float(np.linalg.norm(x - env.clip(x)))
        assert envelope_distance(x, env) == pytest.approx(expected)

    def test_length_mismatch(self):
        env = Envelope(lower=np.zeros(3), upper=np.ones(3))
        with pytest.raises(ValueError, match="does not match"):
            envelope_distance([1.0, 2.0], env)

    def test_point_envelope_is_euclidean(self, rng):
        y = rng.normal(size=15)
        env = k_envelope(y, 0)
        x = rng.normal(size=15)
        assert envelope_distance(x, env) == pytest.approx(
            float(np.linalg.norm(x - y))
        )


class TestWarpingWidthConversion:
    def test_paper_example(self):
        # delta = (2k+1)/n: k=2, n=12 -> width 5/12
        assert warping_width_to_k(5 / 12, 12) == 2

    def test_roundtrip(self):
        for n in (64, 100, 256):
            for k in (0, 3, 10):
                delta = k_to_warping_width(k, n)
                assert warping_width_to_k(delta, n) == k

    def test_zero_width(self):
        assert warping_width_to_k(0.0, 100) == 0

    def test_full_width_clamped(self):
        assert warping_width_to_k(1.0, 10) <= 9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            warping_width_to_k(1.5, 10)
        with pytest.raises(ValueError):
            k_to_warping_width(-1, 10)

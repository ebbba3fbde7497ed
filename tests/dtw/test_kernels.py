"""Kernel parity, early-abandon and batch tests.

There is one kernel per call shape: the scalar row loop
(``banded_dtw_cost``, the reference) for single pairs and
``banded_dtw_cost_batch`` for a candidate matrix, whose body is the
compiled C row loop when a build can be had and the NumPy wavefront
otherwise.  The batch must agree with the reference to 1e-9 (for
``k >= 1`` it agrees bit for bit: every body does the same IEEE
operations per cell).  Early abandoning must never produce a false
negative in any body: a candidate whose true cost is within the cutoff
always comes back with its exact value.  The NumPy body is reached by
setting the module's loaded-library handle to ``None``.
"""

import math
import threading

import numpy as np
import pytest

from repro.dtw import kernels
from repro.dtw.distance import ldtw_distance, ldtw_distance_batch, ldtw_refiner
from repro.dtw.kernels import (
    KernelStats,
    banded_dtw_cost,
    banded_dtw_cost_batch,
)

ATOL = 1e-9
N = 48
BANDS = (0, 1, 5, N)
METRICS = ("euclidean", "manhattan")


def _row_loop_batch(x, candidates, k, bound_costs=None, *, manhattan=False):
    """The scalar kernel over a candidate matrix, one row at a time."""
    bounds = np.broadcast_to(
        math.inf if bound_costs is None else bound_costs,
        (len(candidates),),
    )
    return np.array([
        banded_dtw_cost(x, row, k, float(bound), manhattan=manhattan)
        for row, bound in zip(candidates, bounds)
    ])


#: Both kernels in the batch call shape, by name.
KERNELS = {"scalar": _row_loop_batch, "vectorized": banded_dtw_cost_batch}


def _pair(rng, n=N, m=N):
    x = np.cumsum(rng.normal(size=n))
    y = np.cumsum(rng.normal(size=m))
    return x, y


# ----------------------------------------------------------------------
# batch against the reference, one pair at a time
# ----------------------------------------------------------------------


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", BANDS)
def test_kernel_parity_equal_lengths(rng, k, metric):
    for _ in range(10):
        x, y = _pair(rng)
        ref = ldtw_distance(x, y, k, metric=metric)
        batch = ldtw_distance_batch(x, y[None], k, metric=metric)[0]
        assert batch == pytest.approx(ref, abs=ATOL)
        assert math.isfinite(batch)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("m", (40, 44, 48, 53))
def test_kernel_parity_unequal_lengths(rng, m, metric):
    k = 8
    manhattan = metric == "manhattan"
    for _ in range(5):
        x, y = _pair(rng, n=N, m=m)
        ref = banded_dtw_cost(x, y, k, manhattan=manhattan)
        batch = banded_dtw_cost_batch(x, y[None], k, manhattan=manhattan)[0]
        if abs(N - m) > k:
            assert ref == math.inf and batch == math.inf
        else:
            assert batch == pytest.approx(ref, abs=ATOL)


def test_kernel_k0_unequal_lengths_is_inf(rng):
    x, y = _pair(rng, n=20, m=21)
    assert ldtw_distance(x, y, 0) == math.inf
    assert banded_dtw_cost_batch(x, y[None], 0)[0] == math.inf


def test_kernel_k0_is_pointwise(rng):
    x, y = _pair(rng)
    expect = float(np.linalg.norm(x - y))
    assert ldtw_distance(x, y, 0) == pytest.approx(expect)
    assert ldtw_distance_batch(x, y[None], 0)[0] == pytest.approx(expect)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", BANDS)
def test_kernel_cutoff_grid_no_false_negatives(rng, k, metric):
    """Across a grid of cutoffs: never abandon a true answer, and any
    finite result is the exact value — in both kernels."""
    manhattan = metric == "manhattan"
    for _ in range(5):
        x, y = _pair(rng)
        true_cost = banded_dtw_cost(x, y, k, manhattan=manhattan)
        for frac in (0.0, 0.25, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 4.0):
            bound = true_cost * frac
            for kernel in KERNELS.values():
                got = kernel(x, y[None], k, bound, manhattan=manhattan)[0]
                if frac > 1.0:
                    # Clearly inside the cutoff: must not be abandoned.
                    assert got == pytest.approx(true_cost, abs=ATOL)
                else:
                    # At (summation order can tip a bound == true tie
                    # by one ulp) or beyond the cutoff: abandoned (inf)
                    # or completed anyway — both sound; a wrong finite
                    # value is not.
                    assert got == math.inf or \
                        got == pytest.approx(true_cost, abs=ATOL)


def test_kernel_identical_series_zero_under_tight_cutoff(rng):
    x = np.cumsum(rng.normal(size=N))
    assert banded_dtw_cost(x, x, 5, 0.0) == 0.0
    assert banded_dtw_cost_batch(x, x[None], 5, 0.0)[0] == 0.0


# ----------------------------------------------------------------------
# batch kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", BANDS)
def test_kernel_batch_matches_per_pair(rng, k, metric):
    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(60, N)), axis=1)
    per_pair = np.array([
        ldtw_distance(x, row, k, metric=metric) for row in candidates
    ])
    batch = ldtw_distance_batch(x, candidates, k, metric=metric)
    np.testing.assert_allclose(batch, per_pair, atol=ATOL)
    if k > 0:
        np.testing.assert_array_equal(batch, per_pair)


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_batch_cutoffs_no_false_negatives(rng, kernel):
    """Per-candidate cutoffs: survivors exact, non-survivors only ever
    candidates whose true distance exceeds their own cutoff."""
    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(200, N)), axis=1)
    k = 5
    true_cost = _row_loop_batch(x, candidates, k)
    # Mostly killing cutoffs: with a majority of the batch dead the
    # vectorized kernel's dead-column compaction path runs (a pruned
    # candidate only comes back inf once compaction drops it — until
    # then it may finish with its exact, over-cutoff value, which is
    # an equally sound rejection).
    cuts = true_cost * rng.choice([0.2, 1.005, 1.5], size=true_cost.size,
                                  p=[0.6, 0.2, 0.2])
    got = KERNELS[kernel](x, candidates, k, cuts)
    finite = np.isfinite(got)
    # Any finite result is the exact cost ...
    np.testing.assert_allclose(got[finite], true_cost[finite], atol=ATOL)
    # ... anything clearly inside its cutoff survives ...
    must_survive = true_cost <= cuts * (1.0 - 1e-9)
    assert np.all(finite[must_survive])
    # ... and everything pruned to inf was really over its cutoff.
    assert np.all(true_cost[~finite] > cuts[~finite])
    assert np.any(~finite)  # the cutoffs really did bite


def test_kernel_batch_scalar_cutoff_broadcasts(rng):
    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(20, N)), axis=1)
    true = ldtw_distance_batch(x, candidates, 5)
    cutoff = float(np.median(true))
    got = ldtw_distance_batch(x, candidates, 5, upper_bound=cutoff)
    keep = true <= cutoff
    np.testing.assert_allclose(got[keep], true[keep], atol=ATOL)
    assert np.all(np.isinf(got[~keep]) | (got[~keep] > cutoff))


def test_kernel_batch_bad_bounds_shape_raises(rng):
    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(4, N)), axis=1)
    with pytest.raises(ValueError, match="bound_costs"):
        banded_dtw_cost_batch(x, candidates, 5, np.zeros(3))


def test_kernel_batch_empty_and_band_violation(rng):
    x = np.cumsum(rng.normal(size=N))
    empty = ldtw_distance_batch(x, np.empty((0, N)), 5)
    assert empty.shape == (0,)
    # ldtw_distance_batch requires equal lengths (the post-UTW shape);
    # the kernels themselves answer inf when |n - m| > k.
    short = np.cumsum(rng.normal(size=(3, N - 10)), axis=1)
    assert np.all(np.isinf(banded_dtw_cost_batch(x, short, 5)))
    assert all(banded_dtw_cost(x, row, 5) == math.inf for row in short)


def test_kernel_stats_count_both_shapes(rng):
    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(3, N)), axis=1)
    pair, batch = KernelStats(), KernelStats()
    for row in candidates:
        banded_dtw_cost(x, row, 5, stats=pair)
    banded_dtw_cost_batch(x, candidates, 5, stats=batch)
    assert (pair.calls, pair.rows) == (3, 3)
    assert (batch.calls, batch.rows) == (1, 3)
    # Both evaluate every band cell of every row when nothing abandons.
    assert pair.cells == batch.cells > 0


# ----------------------------------------------------------------------
# prepared refiners
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("metric", METRICS)
def test_kernel_refiner_matches_ldtw_distance(rng, kernel, metric):
    """The prepared refiner returns either kernel's distance."""
    x, _ = _pair(rng)
    refine = ldtw_refiner(x, 5, metric=metric)
    for _ in range(5):
        _, y = _pair(rng)
        if kernel == "scalar":
            expect = ldtw_distance(x, y, 5, metric=metric)
        else:
            expect = ldtw_distance_batch(x, y[None], 5, metric=metric)[0]
        assert refine(y) == pytest.approx(expect, abs=ATOL)
        assert refine(y, expect + 1.0) == pytest.approx(expect, abs=ATOL)
        tight = refine(y, expect * 0.5)
        assert tight == math.inf or tight == pytest.approx(expect, abs=ATOL)


def test_kernel_refiner_accepts_lists(rng):
    x, y = _pair(rng)
    refine = ldtw_refiner(list(x), 5)
    assert refine(list(y)) == pytest.approx(ldtw_distance(x, y, 5), abs=ATOL)


# ----------------------------------------------------------------------
# the native body against the NumPy body and the reference, exactly
# ----------------------------------------------------------------------

PARITY_N = 32


def _native_or_skip():
    native = kernels.native_library()
    if native is None:
        pytest.skip("no native build on this host (no C compiler)")
    return native


def _both_bodies(monkeypatch, *args, **kwargs):
    """``banded_dtw_cost_batch(*args, **kwargs)`` by the native body,
    then by the NumPy body."""
    _native_or_skip()
    native = banded_dtw_cost_batch(*args, **kwargs)
    monkeypatch.setattr(kernels, "_native", None)
    numpy_body = banded_dtw_cost_batch(*args, **kwargs)
    monkeypatch.undo()
    return native, numpy_body


def _reference(x, rows, k, bounds, manhattan, step=1):
    """``banded_dtw_cost`` on every *step*-th row (the rest nan)."""
    out = np.full(len(rows), np.nan)
    for b in range(0, len(rows), step):
        out[b] = banded_dtw_cost(x, rows[b], k, float(bounds[b]),
                                 manhattan=manhattan)
    return out


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", (1, 5, PARITY_N - 1))
@pytest.mark.parametrize("batch", (0, 1, 4, 1025))
@pytest.mark.parametrize("m", (PARITY_N, PARITY_N + 1))
def test_native_body_is_bit_identical_unbounded(monkeypatch, rng, dtype,
                                                metric, k, batch, m):
    """Unbounded costs: native == NumPy == reference, at tolerance 0,
    for float32 and float64 rows and for m != n inside the band."""
    manhattan = metric == "manhattan"
    x = np.cumsum(rng.normal(size=PARITY_N)).astype(dtype)
    rows = np.cumsum(rng.normal(size=(batch, m)), axis=1).astype(dtype)
    native, numpy_body = _both_bodies(monkeypatch, x, rows, k,
                                      manhattan=manhattan)
    np.testing.assert_array_equal(native, numpy_body)
    assert np.all(np.isfinite(native))
    ref = _reference(x, rows, k, np.full(batch, math.inf), manhattan,
                     step=max(1, batch // 16))
    checked = ~np.isnan(ref)
    np.testing.assert_array_equal(native[checked], ref[checked])


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", (1, 5, PARITY_N - 1))
@pytest.mark.parametrize("batch", (1, 4, 1025))
def test_native_body_under_cutoffs(monkeypatch, rng, dtype, metric, k,
                                   batch):
    """Under per-row cutoffs: a row within its cutoff is identical in
    every body; any other row is inf or its exact cost; the native body
    (row-granularity abandoning) abandons every row the reference
    abandons."""
    manhattan = metric == "manhattan"
    x = np.cumsum(rng.normal(size=PARITY_N)).astype(dtype)
    rows = np.cumsum(rng.normal(size=(batch, PARITY_N)), axis=1).astype(dtype)
    exact, _ = _both_bodies(monkeypatch, x, rows, k, manhattan=manhattan)
    cuts = exact * rng.choice([0.3, 0.999, 1.0, 1.5], size=batch)
    native, numpy_body = _both_bodies(monkeypatch, x, rows, k, cuts,
                                      manhattan=manhattan)
    inside = exact <= cuts
    for got in (native, numpy_body):
        np.testing.assert_array_equal(got[inside], exact[inside])
        outside = got[~inside]
        assert np.all(np.isinf(outside) | (outside == exact[~inside]))
    ref = _reference(x, rows, k, cuts, manhattan, step=max(1, batch // 16))
    checked = ~np.isnan(ref)
    np.testing.assert_array_equal(native[checked], ref[checked])


def test_native_body_shared_by_threads(monkeypatch, rng):
    """Eight threads calling the native body at once get the answers of
    one thread: the kernel keeps no static state."""
    _native_or_skip()
    x = np.cumsum(rng.normal(size=64))
    batches = [np.cumsum(rng.normal(size=(300, 64)), axis=1)
               for _ in range(8)]
    cutoffs = [None, 40.0] * 4
    expected = [banded_dtw_cost_batch(x, rows, 6, cut)
                for rows, cut in zip(batches, cutoffs)]
    got = [None] * 8
    barrier = threading.Barrier(8)

    def work(i):
        barrier.wait()
        for _ in range(20):
            got[i] = banded_dtw_cost_batch(x, batches[i], 6, cutoffs[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    for want, have in zip(expected, got):
        np.testing.assert_array_equal(have, want)


def test_native_body_fills_kernel_stats(rng):
    """One native dispatch per call, and the reference's cell count."""
    _native_or_skip()
    x = np.cumsum(rng.normal(size=N))
    rows = np.cumsum(rng.normal(size=(7, N)), axis=1)
    pair, batch = KernelStats(), KernelStats()
    for row in rows:
        banded_dtw_cost(x, row, 5, 10.0, stats=pair)
    banded_dtw_cost_batch(x, rows, 5, 10.0, stats=batch)
    assert (batch.calls, batch.rows) == (1, 7)
    assert batch.cells == pair.cells

"""Kernel-parity properties over the generated case pool.

The batch kernel must return the reference row loop's distances (to
1e-9) on every bundle in the pool, under both metrics, and neither
kernel may produce a false negative under early-abandon cutoffs — the
engine's no-false-negative guarantee rests on this.  The batch
kernel's two bodies, native and NumPy, agree at tolerance 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dtw import kernels
from repro.dtw.distance import ldtw_distance, ldtw_distance_batch

from .conftest import BAND

ATOL = 1e-9


def _row_loop_batch(query, candidates, k, *, upper_bound=None):
    """The reference row loop over a candidate matrix."""
    return np.array([ldtw_distance(query, row, k, upper_bound=upper_bound)
                     for row in candidates])


#: Both kernels in the batch call shape, by name.
KERNELS = {"scalar": _row_loop_batch, "vectorized": ldtw_distance_batch}


def test_kernel_batch_parity_over_pool(bundles):
    """Batch distances match the pool's exact distances, which the
    reference row loop computed pair by pair."""
    for bundle in bundles:
        got = ldtw_distance_batch(bundle.query, bundle.candidates, BAND)
        np.testing.assert_allclose(got, bundle.exact, atol=ATOL,
                                   err_msg=f"family={bundle.family}")


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_kernel_pairwise_parity_over_pool(bundles, metric):
    """Single-pair and batch calls agree on sampled pairs from every
    bundle under both metrics."""
    for bundle in bundles[::3]:
        rows = bundle.candidates[::7]
        batch = ldtw_distance_batch(bundle.query, rows, BAND, metric=metric)
        for row, got in zip(rows, batch):
            ref = ldtw_distance(bundle.query, row, BAND, metric=metric)
            assert got == pytest.approx(ref, abs=ATOL)


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_cutoffs_never_lose_answers_over_pool(bundles, kernel):
    """For a grid of cutoffs: every candidate truly within the cutoff
    keeps its exact distance, in both kernels."""
    for bundle in bundles[::2]:
        exact = bundle.exact
        for quantile in (0.1, 0.5, 0.9):
            cutoff = float(np.quantile(exact, quantile))
            got = KERNELS[kernel](bundle.query, bundle.candidates,
                                  BAND, upper_bound=cutoff)
            inside = exact <= cutoff * (1.0 - 1e-9)
            np.testing.assert_allclose(got[inside], exact[inside],
                                       atol=ATOL)
            finite = np.isfinite(got)
            np.testing.assert_allclose(got[finite], exact[finite],
                                       atol=ATOL)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_kernel_bodies_bit_identical_over_pool(bundles, metric, monkeypatch):
    """Native and NumPy bodies: identical unbounded distances (the
    reference's, exactly); under cutoffs, identical within the cutoff
    and inf or exact beyond it."""
    if kernels.native_library() is None:
        pytest.skip("no native build on this host (no C compiler)")

    def both(bundle, **kwargs):
        native = ldtw_distance_batch(bundle.query, bundle.candidates, BAND,
                                     metric=metric, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_native", None)
            numpy_body = ldtw_distance_batch(bundle.query, bundle.candidates,
                                             BAND, metric=metric, **kwargs)
        return native, numpy_body

    for bundle in bundles:
        exact, numpy_exact = both(bundle)
        np.testing.assert_array_equal(exact, numpy_exact,
                                      err_msg=f"family={bundle.family}")
        if metric == "euclidean":
            np.testing.assert_array_equal(exact, bundle.exact)
        for quantile in (0.1, 0.5, 0.9):
            cutoff = float(np.quantile(exact, quantile))
            inside = exact <= cutoff
            for got in both(bundle, upper_bound=cutoff):
                np.testing.assert_array_equal(got[inside], exact[inside])
                beyond = got[~inside]
                assert np.all(np.isinf(beyond) | (beyond == exact[~inside]))

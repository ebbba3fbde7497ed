"""Dynamic Time Warping distances (Section 4 of the paper).

All distances here use the Euclidean ground metric: costs accumulate as
squared differences and the square root is taken at the end, matching
the paper's ``D^2`` recurrences.

* :func:`dtw_distance` — classic unconstrained DTW (Definition 1),
  O(nm) dynamic programming.
* :func:`ldtw_distance` — ``k``-Local DTW (Definition 4): the warping
  path is confined to a Sakoe-Chiba band of half-width ``k``, giving
  O(kn) time.
* :func:`utw_distance` — Uniform Time Warping (Definition 2): a purely
  diagonal path between the upsampled series (Lemma 1).
* :func:`warping_distance` — the paper's composite Definition 5: LDTW
  between the UTW normal forms, parameterised by the warping width
  ``delta = (2k+1)/n``.

The banded dynamic program itself lives in :mod:`repro.dtw.kernels`,
one kernel per call shape: single pairs (:func:`dtw_distance`,
:func:`ldtw_distance`, :func:`ldtw_refiner`) run the reference row
loop, and :func:`ldtw_distance_batch` runs the batched kernel (the
compiled row loop, or a NumPy wavefront where no compiler is found).
Input validation and float64 conversion happen once in these
wrappers — use :func:`ldtw_refiner` when refining many candidates
against one query so the per-query preparation is also paid once.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from ..core.envelope import warping_width_to_k
from ..core.series import as_series, uniform_resample
from .kernels import KernelStats, banded_dtw_cost, banded_dtw_cost_batch

__all__ = [
    "dtw_distance",
    "ldtw_distance",
    "ldtw_distance_batch",
    "ldtw_refiner",
    "utw_distance",
    "warping_distance",
]


_METRICS = ("euclidean", "manhattan")


def _check_metric(metric: str) -> bool:
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
    return metric == "manhattan"


def _finish(cost: float, manhattan: bool) -> float:
    if cost == math.inf:
        return math.inf
    return cost if manhattan else math.sqrt(cost)


#: Upward rounding of a Euclidean cutoff's square.  A row belongs
#: within the cutoff ``e`` when its distance ``fl(sqrt(c)) <= e``, i.e.
#: whenever ``c <= e**2 / (1 - u)**2`` (u = 2**-53), yet ``fl(e * e)``
#: can be as small as ``e**2 * (1 - u)``.  Scaled by this factor (one
#: more rounding) the cutoff is at least ``e**2 * (1 - u)**2 * slack``,
#: which covers every such row since ``(1 - u)**-4 < 1 + 2**-50``.
#: Manhattan costs are the distances themselves and need no slack.
_CUTOFF_SLACK = 1.0 + 2.0 ** -50


def _bound_cost(upper_bound, manhattan: bool):
    """The kernels' cost-space cutoff for a distance-space *upper_bound*
    (a scalar, or a float64 array of per-row cutoffs); ``None`` is no
    cutoff."""
    if upper_bound is None:
        return math.inf
    if not isinstance(upper_bound, np.ndarray):
        upper_bound = float(upper_bound)
    if manhattan:
        return upper_bound
    return upper_bound * upper_bound * _CUTOFF_SLACK


def dtw_distance(
    x, y, *, upper_bound: float | None = None, metric: str = "euclidean",
) -> float:
    """Unconstrained DTW distance between two series (Definition 1).

    Parameters
    ----------
    x, y:
        Time series of any (possibly different) lengths.
    upper_bound:
        Optional early-abandoning threshold: if the true distance
        exceeds it, ``inf`` is returned instead (sound for filtering).
    metric:
        ``"euclidean"`` (the paper's, default) or ``"manhattan"`` —
        the "other distance metrics" the paper says the framework
        admits with modifications.
    """
    manhattan = _check_metric(metric)
    xa = as_series(x)
    ya = as_series(y)
    k = max(xa.size, ya.size)  # a band this wide imposes no constraint
    cost = banded_dtw_cost(
        xa, ya, k, _bound_cost(upper_bound, manhattan), manhattan=manhattan
    )
    return _finish(cost, manhattan)


def ldtw_distance(
    x, y, k: int, *, upper_bound: float | None = None,
    metric: str = "euclidean",
) -> float:
    """``k``-Local DTW distance (Definition 4).

    Alignments may only pair elements whose positions differ by at most
    ``k``.  Returns ``inf`` when the lengths differ by more than ``k``
    (no admissible path exists) or when *upper_bound* is exceeded.
    """
    if k < 0:
        raise ValueError(f"band half-width must be >= 0, got {k}")
    manhattan = _check_metric(metric)
    xa = as_series(x)
    ya = as_series(y)
    cost = banded_dtw_cost(
        xa, ya, k, _bound_cost(upper_bound, manhattan), manhattan=manhattan
    )
    return _finish(cost, manhattan)


def ldtw_refiner(
    query, k: int, *, metric: str = "euclidean",
    kernel_stats: KernelStats | None = None,
) -> Callable[..., float]:
    """A prepared ``refine(y, upper_bound=None) -> distance`` closure.

    Refinement loops call the exact banded DTW once per surviving
    candidate with the *same* query; this hoists the query-side
    validation and conversion (including the row loop's list
    conversion) out of that loop, so each call pays only for the
    candidate side.  The returned callable accepts an optional
    early-abandoning *upper_bound* in distance space and returns the
    distance (``inf`` if pruned).  A *kernel_stats* recorder, when
    given, accumulates the work counters of every refine call (see
    :class:`repro.dtw.kernels.KernelStats`).
    """
    if k < 0:
        raise ValueError(f"band half-width must be >= 0, got {k}")
    manhattan = _check_metric(metric)
    q_list = as_series(query).tolist()

    def refine(y, upper_bound: float | None = None) -> float:
        ya = y if isinstance(y, np.ndarray) and y.dtype == np.float64 \
            else as_series(y)
        cost = banded_dtw_cost(q_list, ya, k,
                               _bound_cost(upper_bound, manhattan),
                               manhattan=manhattan, stats=kernel_stats)
        return _finish(cost, manhattan)

    return refine


def ldtw_distance_batch(
    query, candidates, k: int, *, metric: str = "euclidean",
    upper_bound=None, kernel_stats: KernelStats | None = None,
) -> np.ndarray:
    """``k``-Local DTW distances from one query to many candidates.

    All candidates must share the query's length (the situation after
    UTW normalisation).  The computation is delegated to
    :func:`repro.dtw.kernels.banded_dtw_cost_batch`: one call of its
    compiled row loop for the whole matrix (or, where no compiler is
    found, anti-diagonal wavefronts swept over every candidate at once
    in NumPy) — orders of magnitude faster than per-pair calls of the
    Python reference for databases of thousands of series.

    Parameters
    ----------
    query:
        Series of length ``n``.
    candidates:
        Array of shape ``(m, n)``.
    k:
        Band half-width.
    metric:
        ``"euclidean"`` or ``"manhattan"``.
    upper_bound:
        Optional early-abandoning cutoff in distance space — a scalar
        shared by all candidates or one value per candidate.  Rows
        whose distance provably exceeds their cutoff come back as
        ``inf`` (sound for filtering, as in :func:`ldtw_distance`).
    kernel_stats:
        Optional :class:`repro.dtw.kernels.KernelStats` recorder; the
        kernel accumulates cells computed, rows processed, and columns
        compacted into it.

    Returns
    -------
    numpy.ndarray
        The ``m`` distances, in candidate order.
    """
    if k < 0:
        raise ValueError(f"band half-width must be >= 0, got {k}")
    manhattan = _check_metric(metric)
    q = as_series(query)
    cand = np.ascontiguousarray(candidates, dtype=np.float64)
    if cand.ndim != 2 or cand.shape[1] != q.size:
        raise ValueError(
            f"candidates must have shape (m, {q.size}), got {cand.shape}"
        )
    if cand.shape[0] == 0:
        return np.zeros(0)
    bound_costs = None if upper_bound is None else _bound_cost(
        np.asarray(upper_bound, dtype=np.float64), manhattan)
    final = banded_dtw_cost_batch(q, cand, k, bound_costs,
                                  manhattan=manhattan, stats=kernel_stats)
    if manhattan:
        return final
    return np.sqrt(final)


def utw_distance(x, y) -> float:
    """Uniform Time Warping distance (Definition 2, via Lemma 1).

    ``D_UTW(x, y) = D(U_m(x), U_n(y)) / sqrt(n m)``: both series are
    stretched to a common length and compared point by point, with the
    normalisation making the result independent of the stretching.  As
    the paper notes, any common multiple works — we stretch to
    ``lcm(n, m)`` instead of ``n*m`` and normalise by that length,
    which yields exactly the same value.
    """
    xa = as_series(x)
    ya = as_series(y)
    common = math.lcm(xa.size, ya.size)
    xs = uniform_resample(xa, common)
    ys = uniform_resample(ya, common)
    diff = xs - ys
    return float(np.sqrt(np.sum(diff * diff) / common))


def warping_distance(
    x,
    y,
    *,
    delta: float,
    normal_length: int = 256,
    upper_bound: float | None = None,
    metric: str = "euclidean",
) -> float:
    """The paper's composite DTW distance (Definition 5).

    Both series are brought to the UTW normal form of *normal_length*
    samples, then compared with LDTW whose band half-width is derived
    from the warping width ``delta = (2k+1)/normal_length``.
    """
    xa = uniform_resample(as_series(x), normal_length)
    ya = uniform_resample(as_series(y), normal_length)
    k = warping_width_to_k(delta, normal_length)
    return ldtw_distance(xa, ya, k, upper_bound=upper_bound, metric=metric)

"""Vectorised lower-bound kernels for the filter cascade.

Every kernel here evaluates one query against many candidate rows in a
handful of NumPy operations, instead of the one-pair-at-a-time calls in
:mod:`repro.core.lower_bounds`.  On float64 rows each kernel agrees
with its scalar counterpart to floating-point precision (the property
suite in ``tests/properties/`` pins this to 1e-9), so the cascade
inherits the no-false-negative guarantee of Theorem 1 / Lemma 2 case
by case.

Kernels, cheapest first:

* :func:`lb_first_last_batch` — the corner-cell bound (after Kim et
  al. 2001, specialised to equal-length banded DTW): cells ``(0, 0)``
  and ``(n-1, n-1)`` lie on *every* admissible warping path, so their
  costs alone lower-bound the distance.  Reads two columns.
* :func:`lb_envelope_batch` — distance from each candidate row to one
  fixed band.  With the query's full ``k``-envelope this is LB_Keogh
  (Lemma 2, "EQ"); with a reduced feature envelope and the candidate
  feature matrix it is the Theorem-1 feature-space bound (New_PAA or
  Keogh_PAA, depending on which reduction produced the band).
* :func:`lb_new_paa_two_sided` — Theorem 1 read both ways, the
  ``new_paa`` stage: the max of the query side (:func:`lb_envelope_batch`
  on the feature matrix) and the row side, :func:`lb_row_paa`: the
  query's PAA against New_PAA of each *row's* own envelope (a store's
  ``env_paa`` column).  Theorem 1 holds for any container, so the row
  side lower-bounds EC, hence the distance.  It is computed in float32
  and deflated like ``lb_keogh``.
* :func:`lb_keogh_two_sided` — Lemma 2 read both ways, the ``lb_keogh``
  stage: ``max(EQ, EC)``, where EC is the distance from the query to
  each *row's* own ``k``-envelope (banded DTW is symmetric).  Computed
  in blocks of :data:`_BLOCK_ROWS` rows in the rows' own dtype; float32
  rows get a bound rounded down to stay sound (derived in the
  docstring).  Its query-side arrays come from :func:`query_sides`,
  cast once per query.
* :func:`lb_lemire_batch` — Lemire's two-pass LB_Improved (Pattern
  Recognition 2009): the LB_Keogh gaps plus the distance from the
  query to the envelope of each candidate's *projection* onto the
  query envelope.  Never looser than EQ (neither is ordered against
  EC), still O(n) per candidate thanks to vectorised sliding min/max.
"""

from __future__ import annotations

import numpy as np

from ..core.envelope import Envelope, batch_envelope
from ..core.envelope_transforms import round_f32

__all__ = [
    "batch_gap_distance",
    "lb_first_last_batch",
    "lb_envelope_batch",
    "lb_keogh_two_sided",
    "lb_lemire_batch",
    "lb_new_paa_two_sided",
    "lb_row_paa",
    "query_sides",
]

#: Rows :func:`lb_keogh_two_sided` gathers and bounds at a time: a
#: 512 x 128 float32 block and its two envelope blocks are 0.75 MB, so
#: a block's temporaries stay in cache while its NumPy calls stay few.
_BLOCK_ROWS = 512

#: Rows :func:`lb_new_paa_two_sided` bounds at a time: with 8 features
#: and 16 row frames a block's gaps are about 0.4 MB, against 2.5 MB for
#: a 10^4-row corpus at once, and every dispatcher thread keeps its
#: largest temporaries allocated.
_PAA_BLOCK_ROWS = 2048

#: Unit roundoff of float32 (round to nearest).
_U32 = 2.0 ** -24

#: Where a float32 bound may overflow: a square (or a Manhattan sum)
#: that reached ``inf`` certifies a true bound of at least this much.
_F32_SQRT_MAX = float(np.sqrt(np.finfo(np.float32).max))

_METRICS = ("euclidean", "manhattan")


def _check_metric(metric: str) -> bool:
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
    return metric == "manhattan"


def _as_matrix(candidates, width: int | None = None) -> np.ndarray:
    mat = np.asarray(candidates, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"candidates must be 2-D, got shape {mat.shape}")
    if width is not None and mat.shape[1] != width:
        raise ValueError(
            f"candidates must have shape (m, {width}), got {mat.shape}"
        )
    return mat


def _gap_norm(gap: np.ndarray, manhattan: bool) -> np.ndarray:
    """Row norms of ``max(gap, 0)``, in *gap*'s dtype (overwrites it)."""
    np.maximum(gap, 0, out=gap)
    if manhattan:
        return gap.sum(axis=1)
    return np.sqrt(np.einsum("ij,ij->i", gap, gap))


def batch_gap_distance(
    candidates, lower, upper, *, metric: str = "euclidean"
) -> np.ndarray:
    """Distance from each candidate row to the band ``[lower, upper]``.

    The row-wise version of Definition 7: only the parts of each row
    that stick out of the band contribute.  ``lower``/``upper`` are
    length-``n`` vectors shared by all rows, ``lower <= upper``, so at
    most one side sticks out and its gap is the larger of the two.
    """
    manhattan = _check_metric(metric)
    lo = np.asarray(lower, dtype=np.float64)
    hi = np.asarray(upper, dtype=np.float64)
    mat = _as_matrix(candidates, lo.size)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("band sides must be 1-D and of equal length")
    gap = np.subtract(lo, mat)
    np.maximum(gap, np.subtract(mat, hi), out=gap)
    return _gap_norm(gap, manhattan)


def lb_envelope_batch(
    candidates, envelope: Envelope, *, metric: str = "euclidean"
) -> np.ndarray:
    """Vectorised envelope bound: each row against one envelope.

    With the query's full-dimension ``k``-envelope this is LB_Keogh
    (Lemma 2) for every candidate at once; with a container-invariantly
    reduced envelope and the candidates' feature vectors it is the
    paper's Theorem-1 bound.  Matches the scalar
    :func:`repro.core.lower_bounds.lb_keogh` /
    :func:`~repro.core.lower_bounds.lb_envelope_transform` values.
    """
    return batch_gap_distance(
        candidates, envelope.lower, envelope.upper, metric=metric
    )


def lb_first_last_batch(
    query, candidates, rows=None, *, metric: str = "euclidean"
) -> np.ndarray:
    """Corner-cell bound for equal-length banded DTW, all rows at once.

    Both ``(0, 0)`` and ``(n-1, n-1)`` are on every admissible path of
    the banded DP (paths are anchored at the corners), so the combined
    cost of those two cells lower-bounds the full distance whatever
    the warping.  The cheapest possible screen: O(1) per candidate.
    Only the first and last columns are read — of the rows indexed by
    *rows*, or of every row — and float32 columns promote exactly
    against the float64 query.
    """
    manhattan = _check_metric(metric)
    q = np.asarray(query, dtype=np.float64)
    data = np.asarray(candidates)
    if data.ndim != 2 or data.shape[1] != q.size:
        raise ValueError(
            f"candidates must have shape (m, {q.size}), got {data.shape}"
        )
    pick = slice(None) if rows is None else rows
    first = np.abs(q[0] - data[pick, 0])
    if q.size == 1:
        return first
    last = np.abs(q[-1] - data[pick, -1])
    if manhattan:
        return first + last
    return np.sqrt(first * first + last * last)


def _deflate(out: np.ndarray, terms: int) -> np.ndarray:
    """Scale a float32-computed bound of *terms* rounded steps down by
    ``1 - gamma_terms`` (in place), after clipping an overflow to
    ``sqrt(FLT_MAX)``: see :func:`lb_keogh_two_sided`."""
    m = terms * _U32
    np.minimum(out, _F32_SQRT_MAX, out=out)
    out *= 1.0 - m / (1.0 - m)
    return out


def query_sides(q, q_envelope: Envelope, dtype) -> tuple:
    """The query arrays :func:`lb_keogh_two_sided` reads, for rows of
    *dtype*: ``(lower, upper, q_down, q_up)``.

    For float32 rows each is cast once, rounded *outward* — the
    envelope's lower side and ``q_down`` down, its upper side and
    ``q_up`` up — so a query's blocks share one cast.  Otherwise they
    are the float64 arrays themselves.
    """
    q = np.asarray(q, dtype=np.float64)
    lo, hi = q_envelope.lower, q_envelope.upper
    if np.dtype(dtype) != np.float32:
        return lo, hi, q, q
    return (round_f32(lo, -np.inf), round_f32(hi, np.inf),
            round_f32(q, -np.inf), round_f32(q, np.inf))


def lb_keogh_two_sided(
    sides, data, env_lower, env_upper, rows, *, metric: str = "euclidean",
) -> np.ndarray:
    """Lemma 2 both ways, ``max(EQ, EC)``, for the rows indexed by *rows*.

    *sides* is :func:`query_sides` of the query, its ``k``-envelope and
    ``data.dtype``.  EQ is each row's distance to the query's envelope;
    EC the query's distance to the row's own ``k``-envelope
    ``(env_lower[r], env_upper[r])``.  Banded DTW is symmetric, so both
    lower-bound it.  Rows are gathered and bounded :data:`_BLOCK_ROWS`
    at a time in the dtype of *data* — one read of each block serves
    both terms, and nothing corpus-sized is made in float64.

    Float64 rows get exactly ``max(EQ, EC)``.  On float32 rows the
    query arrays are rounded outward (:func:`query_sides`): the
    envelope's lower side and the ``q`` of the ``q - U`` gaps down, its
    upper side and the ``q`` of the ``L - q`` gaps up.  Every gap then
    starts from inputs no farther apart than the exact ones, so with
    u = 2**-24 and ``gamma_m = m u / (1 - m u)``:

    * each gap rounds once: ``g' <= g (1 + u)``;
    * Euclidean: each square rounds once, and an n-term sum in any
      order by at most ``1 + gamma_(n-1)``, so the float32 sum is at
      most ``1 + gamma_(n+2)`` times the exact one; its rounded root is
      then within ``(1 + u) sqrt(1 + gamma_(n+2)) <= 1 + gamma_(n+4)``
      of the exact bound;
    * Manhattan: the gaps and the sum give ``1 + gamma_n``.

    Scaled by ``1 - gamma_(n+4)`` in float64, the result is at most
    ``1 - gamma**2`` times the exact bound — sound, with ``gamma**2``
    far above float64's own rounding.  A float32 result that overflowed
    certifies an exact bound of at least ``sqrt(FLT_MAX) / (1 + gamma)``
    and is clipped to ``sqrt(FLT_MAX)`` before the scaling.  (Gradual
    underflow adds at most ``n * 2**-149`` to a sum, far inside the
    engine's pruning guard.)  The same pattern as the tree route's
    ``_lb_slack``: a bound computed from rounded values is deflated by
    its worst-case error.
    """
    manhattan = _check_metric(metric)
    lo, hi, q_down, q_up = sides
    rows = np.asarray(rows)
    out = np.empty(rows.size)
    for start in range(0, rows.size, _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        x = data[block]
        eq = np.subtract(lo, x)
        np.maximum(eq, np.subtract(x, hi, out=x), out=eq)
        ec = np.subtract(q_down, env_upper[block])
        np.maximum(ec, np.subtract(env_lower[block], q_up), out=ec)
        out[start:start + block.size] = np.maximum(
            _gap_norm(eq, manhattan), _gap_norm(ec, manhattan)
        )
    if data.dtype == np.float32:
        _deflate(out, lo.size + 4)
    return out


def lb_new_paa_two_sided(features, envelope: Envelope, q_means, env_paa,
                         widths, rows, *, metric: str = "euclidean"
                         ) -> np.ndarray:
    """Theorem 1 both ways, the ``new_paa`` stage, for the rows *rows*
    selects (an index array, or ``slice(None)`` for every row).

    The query side is each row's *features* against the query's reduced
    *envelope* (:func:`lb_envelope_batch`), the row side the query's
    frame means *q_means* against each row's ``env_paa`` brackets
    (:func:`lb_row_paa`).  Both are computed
    :data:`_PAA_BLOCK_ROWS` rows at a time.
    """
    count = features.shape[0] if isinstance(rows, slice) else len(rows)
    out = np.empty(count)
    for start in range(0, count, _PAA_BLOCK_ROWS):
        stop = min(start + _PAA_BLOCK_ROWS, count)
        block = (slice(start, stop) if isinstance(rows, slice)
                 else rows[start:stop])
        np.maximum(
            lb_envelope_batch(features[block], envelope, metric=metric),
            lb_row_paa(q_means, env_paa, block, widths, metric=metric),
            out=out[start:stop],
        )
    return out


def lb_row_paa(q_means, env_paa, rows, widths, *,
               metric: str = "euclidean") -> np.ndarray:
    """New_PAA of each row's envelope against the query: the row side
    of the ``new_paa`` stage, for the rows *rows* selects.

    *env_paa* is the float32 column of
    :func:`~repro.core.envelope_transforms.envelope_paa`: per row, the
    frame means of its envelope's lower side (rounded down) then of its
    upper side (rounded up).  *q_means* are the query's float64 frame
    means over the same frames, of widths *widths*.  With ``g_j`` the
    gap from the query's mean to the row's bracket in frame ``j``, the
    bound is ``sqrt(sum w_j g_j**2)`` (Manhattan: ``sum w_j g_j``):
    the PAA transform's distance from the query's features to the
    row's New_PAA feature envelope, which Theorem 1 makes a lower
    bound of EC — the query against the row's envelope — and so of the
    distance.

    The query's means are rounded outward to float32 and the gaps,
    weights and sums computed in float32.  With F frames each gap
    rounds once, its square once, its weighted square once (integer
    widths are exact) and the sum by at most ``1 + gamma_(F-1)``, so
    the float32 sum is within ``1 + gamma_(F+3)`` of the exact one,
    and its root (taken in float64) within half that.  The result is
    deflated by ``1 - gamma_(F+4)`` as in :func:`lb_keogh_two_sided`.
    """
    manhattan = _check_metric(metric)
    frames = widths.size
    paa = env_paa[rows]
    gap = np.subtract(paa[:, :frames], round_f32(q_means, np.inf))
    np.maximum(gap, np.subtract(round_f32(q_means, -np.inf),
                                paa[:, frames:]), out=gap)
    np.maximum(gap, 0, out=gap)
    if not manhattan:
        np.multiply(gap, gap, out=gap)
    out = (gap @ widths.astype(np.float32)).astype(np.float64)
    if not manhattan:
        np.sqrt(out, out=out)
    return _deflate(out, frames + 4)


def lb_lemire_batch(
    query,
    candidates,
    k: int,
    *,
    q_envelope: Envelope | None = None,
    metric: str = "euclidean",
) -> np.ndarray:
    """Lemire's two-pass LB_Improved for every candidate row.

    First pass: the LB_Keogh gaps of each candidate against the query
    envelope.  Second pass: project each candidate onto that envelope
    and measure how far the *query* sticks out of the projection's own
    ``k``-envelope.  Both gap fields contribute to one distance, so
    ``LB_Keogh <= LB_Improved <= D_LDTW(k)`` pointwise (Lemire 2009,
    Theorem 2 — valid for the banded DP with L1 or L2 ground metric),
    where LB_Keogh is EQ, one half of :func:`lb_keogh_two_sided`.
    """
    if k < 0:
        raise ValueError(f"band half-width must be >= 0, got {k}")
    manhattan = _check_metric(metric)
    q = np.asarray(query, dtype=np.float64)
    mat = _as_matrix(candidates, q.size)
    if q_envelope is None:
        from ..core.envelope import k_envelope

        q_envelope = k_envelope(q, k)
    lo, hi = q_envelope.lower, q_envelope.upper
    gap1 = np.maximum(lo - mat, 0.0) + np.maximum(mat - hi, 0.0)
    projected = np.clip(mat, lo, hi)
    proj_lower, proj_upper = batch_envelope(projected, k)
    gap2 = np.maximum(proj_lower - q, 0.0) + np.maximum(q - proj_upper, 0.0)
    if manhattan:
        return np.sum(gap1, axis=1) + np.sum(gap2, axis=1)
    return np.sqrt(
        np.einsum("ij,ij->i", gap1, gap1) + np.einsum("ij,ij->i", gap2, gap2)
    )

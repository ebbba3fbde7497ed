"""Time-series envelopes (Definition 6) and envelope distances (Definition 7).

The ``k``-envelope of a series brackets each sample by the minimum and
maximum over a window of half-width ``k``; it is the geometric object
every DTW lower bound in this library is built from.  Envelopes are
computed in O(n) per row with the van Herk / Gil-Werman block
prefix/suffix min/max, not the naive O(nk) scan; :func:`batch_envelope`
computes them for every row of a matrix at once and :func:`k_envelope`
is its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import as_series

__all__ = [
    "Envelope",
    "batch_envelope",
    "k_envelope",
    "envelope_distance",
    "warping_width_to_k",
    "k_to_warping_width",
]


@dataclass(frozen=True)
class Envelope:
    """A lower/upper band around a time series.

    Attributes
    ----------
    lower:
        Lower bound at each sample, ``EnvL_k`` in the paper.
    upper:
        Upper bound at each sample, ``EnvU_k`` in the paper.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = as_series(self.lower)
        upper = as_series(self.upper)
        if lower.size != upper.size:
            raise ValueError(
                f"envelope sides differ in length: {lower.size} != {upper.size}"
            )
        if np.any(lower > upper + 1e-12):
            raise ValueError("lower envelope exceeds upper envelope")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __len__(self) -> int:
        return int(self.lower.size)

    def contains(self, series, *, atol: float = 1e-9) -> bool:
        """True if *series* lies within the band at every sample."""
        arr = as_series(series)
        if arr.size != len(self):
            return False
        return bool(
            np.all(arr >= self.lower - atol) and np.all(arr <= self.upper + atol)
        )

    def width(self) -> np.ndarray:
        """Pointwise band width ``upper - lower``."""
        return self.upper - self.lower

    def clip(self, series) -> np.ndarray:
        """Project *series* onto the band (the nearest point inside it)."""
        arr = as_series(series)
        if arr.size != len(self):
            raise ValueError(
                f"series length {arr.size} does not match envelope length {len(self)}"
            )
        return np.clip(arr, self.lower, self.upper)


def _window_extremum(padded: np.ndarray, ufunc, width: int,
                     n: int) -> np.ndarray:
    """``ufunc`` over every *width*-wide window of the rows of *padded*.

    van Herk / Gil-Werman: cut each row into blocks of *width*; the
    window starting at ``i`` spans the suffix of ``i``'s block and the
    prefix of the next one, so it is one ``ufunc`` of a running suffix
    and a running prefix.  *padded*'s length is a multiple of *width*.
    """
    m = padded.shape[0]
    blocks = padded.reshape(m, -1, width)
    prefix = ufunc.accumulate(blocks, axis=2).reshape(m, -1)
    suffix = ufunc.accumulate(blocks[:, :, ::-1], axis=2)[:, :, ::-1]
    suffix = suffix.reshape(m, -1)
    return ufunc(suffix[:, :n], prefix[:, width - 1:width - 1 + n])


def batch_envelope(rows, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``k``-envelopes of a ``(m, n)`` matrix, in its own dtype.

    Each row is padded with ``k`` copies of its edge values, which
    computes exactly the truncated window ``[i-k, i+k]`` (a replicated
    edge value is itself part of every truncated window); the windows
    are then taken with the O(n) block prefix/suffix scan.  Exact for
    any dtype: envelope values are elements of the input.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"expected an (m, n) matrix, got shape {rows.shape}")
    if k < 0:
        raise ValueError(f"window half-width must be >= 0, got {k}")
    n = rows.shape[1]
    # A window reaching past both ends is the whole row.
    k = min(k, max(n - 1, 0))
    if k == 0 or rows.size == 0:
        return rows.copy(), rows.copy()
    width = 2 * k + 1
    # Pad to whole blocks; what lies past n + 2k enters no window.
    tail = -(-(n + 2 * k) // width) * width - n - k
    padded = np.concatenate([np.repeat(rows[:, :1], k, axis=1), rows,
                             np.repeat(rows[:, -1:], tail, axis=1)], axis=1)
    return (_window_extremum(padded, np.minimum, width, n),
            _window_extremum(padded, np.maximum, width, n))


def k_envelope(series, k: int) -> Envelope:
    """The ``k``-envelope ``Env_k`` of a series (Definition 6)."""
    lower, upper = batch_envelope(as_series(series)[None, :], k)
    return Envelope(lower=lower[0], upper=upper[0])


def envelope_distance(series, envelope: Envelope, *, metric: str = "euclidean") -> float:
    """Distance from a series to an envelope (Definition 7).

    ``D(x, e) = min_{z in e} D(x, z)``: only the parts of *series* that
    stick out of the band contribute.  Supports the Euclidean metric
    (the paper's, default) and Manhattan.
    """
    arr = as_series(series)
    if arr.size != len(envelope):
        raise ValueError(
            f"series length {arr.size} does not match envelope length {len(envelope)}"
        )
    above = np.maximum(arr - envelope.upper, 0.0)
    below = np.maximum(envelope.lower - arr, 0.0)
    if metric == "euclidean":
        return float(np.sqrt(np.sum(above * above + below * below)))
    if metric == "manhattan":
        return float(np.sum(above + below))
    raise ValueError(
        f"metric must be 'euclidean' or 'manhattan', got {metric!r}"
    )


def warping_width_to_k(delta: float, n: int) -> int:
    """Convert a warping width ``delta = (2k+1)/n`` to the band half-width k.

    The result is clamped to ``[0, n-1]``; fractional widths round down,
    matching the Sakoe-Chiba beam of ``2k+1`` cells the paper describes.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"warping width must be in [0, 1], got {delta}")
    if n < 1:
        raise ValueError("series length must be positive")
    k = int((delta * n - 1) // 2) if delta * n >= 1 else 0
    return max(0, min(k, n - 1))


def k_to_warping_width(k: int, n: int) -> float:
    """Convert a band half-width back to the warping width ``(2k+1)/n``."""
    if k < 0:
        raise ValueError("band half-width must be >= 0")
    if n < 1:
        raise ValueError("series length must be positive")
    return (2 * k + 1) / n

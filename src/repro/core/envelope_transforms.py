"""Envelope transforms — the paper's central contribution.

A dimensionality-reduction transform ``T`` applied to an *envelope*
must be **container-invariant** (Definition 8): every series inside the
envelope must land inside the transformed envelope.  Lemma 3 shows how
to achieve this for any linear ``T`` by routing each coefficient
through the upper or lower side of the envelope according to its sign:

.. math::

    E^U_j = \\sum_i a_{ij} e^U_i \\tau(a_{ij}) + a_{ij} e^L_i (1-\\tau(a_{ij}))

and symmetrically for ``E^L``.  :class:`SignSplitEnvelopeTransform`
implements exactly that, vectorised, for any :class:`LinearTransform`.

Two PAA-specific reductions are provided for the head-to-head
comparison in the experiments:

* :class:`NewPAAEnvelopeTransform` — the paper's New_PAA: each feature
  bound is the frame *average* of the corresponding envelope side.
  Because all PAA coefficients are positive, this coincides with the
  generic sign-split construction, and it is never looser than
  Keogh's reduction.
* :class:`KeoghPAAEnvelopeTransform` — the prior state of the art
  (Keogh, VLDB 2002): each feature bound is the frame *min/max* of the
  envelope side, i.e. a piecewise-constant band that bounds but never
  intersects the envelope.

:class:`NaiveEnvelopeTransform` applies ``T`` to each envelope side
directly with no sign handling; for transforms with negative
coefficients (DFT, SVD, DWT) it is *not* container-invariant and is
included only so the ablation benchmark can demonstrate the resulting
false negatives.

Theorem 1 holds for any container, so New_PAA also reduces each
*corpus row's* envelope: :func:`envelope_paa` computes those frame
means for a whole matrix of row envelopes at
:func:`row_paa_frames` frames, as the float32 column a store keeps
next to its envelope columns (the row side of the engine's ``new_paa``
stage).
"""

from __future__ import annotations

import functools

import numpy as np

from .envelope import Envelope
from .transforms import LinearTransform, PAATransform

__all__ = [
    "EnvelopeTransform",
    "SignSplitEnvelopeTransform",
    "NewPAAEnvelopeTransform",
    "KeoghPAAEnvelopeTransform",
    "NaiveEnvelopeTransform",
    "envelope_paa",
    "frame_means",
    "round_f32",
    "row_paa_frames",
]

#: Rows :func:`envelope_paa` upcasts to float64 at a time (1 MB at
#: n = 128), so a corpus-sized column never has a float64 copy.
_PAA_BLOCK_ROWS = 1024


class EnvelopeTransform:
    """Base class pairing a series transform with an envelope reduction.

    Subclasses implement :meth:`reduce`, mapping a length-``n``
    envelope to an envelope in the ``N``-dimensional feature space.
    The series transform itself is delegated to the wrapped
    :class:`LinearTransform`, so feature vectors and feature envelopes
    live in the same space and plain Euclidean geometry applies.
    """

    def __init__(self, transform: LinearTransform, *, name: str | None = None) -> None:
        self.transform = transform
        self.name = name or f"{type(self).__name__}[{transform.name}]"

    @property
    def metrics(self) -> tuple[str, ...]:
        """Ground metrics under which the induced bound is sound."""
        return self.transform.metrics

    @property
    def input_length(self) -> int:
        return self.transform.input_length

    @property
    def output_dim(self) -> int:
        return self.transform.output_dim

    def reduce(self, envelope: Envelope) -> Envelope:
        """Map an envelope to its feature-space envelope."""
        raise NotImplementedError

    def transform_series(self, series) -> np.ndarray:
        """Map a series to its feature vector (delegates to ``transform``)."""
        return self.transform.transform(series)

    def _check_length(self, envelope: Envelope) -> None:
        if len(envelope) != self.input_length:
            raise ValueError(
                f"{self.name} expects envelopes of length {self.input_length}, "
                f"got {len(envelope)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.transform!r})"


class SignSplitEnvelopeTransform(EnvelopeTransform):
    """Generic container-invariant envelope transform (Lemma 3).

    Positive coefficients read from the same side of the envelope they
    contribute to; negative coefficients read from the opposite side.
    This is the tightest reduction that is container-invariant for an
    arbitrary linear transform: each output bound is attained by some
    series inside the input envelope.
    """

    def __init__(self, transform: LinearTransform, *, name: str | None = None) -> None:
        super().__init__(transform, name=name or transform.name)
        matrix = transform.matrix
        self._positive = np.maximum(matrix, 0.0)
        self._negative = np.minimum(matrix, 0.0)

    def reduce(self, envelope: Envelope) -> Envelope:
        self._check_length(envelope)
        upper = self._positive @ envelope.upper + self._negative @ envelope.lower
        lower = self._positive @ envelope.lower + self._negative @ envelope.upper
        return Envelope(lower=lower, upper=upper)


class NewPAAEnvelopeTransform(SignSplitEnvelopeTransform):
    """The paper's New_PAA envelope reduction.

    ``L_i = mean(frame of lower side)``, ``U_i = mean(frame of upper
    side)`` (times the lower-bounding PAA scaling).  Since every PAA
    coefficient is positive, the sign-split construction degenerates to
    exactly this, so we simply specialise the generic class for clarity
    and to fix the benchmark name.
    """

    def __init__(self, input_length: int, n_frames: int, *,
                 metric: str = "euclidean") -> None:
        norm = "l2" if metric == "euclidean" else "l1"
        super().__init__(
            PAATransform(input_length, n_frames, norm=norm), name="New_PAA"
        )


class KeoghPAAEnvelopeTransform(EnvelopeTransform):
    """Keogh's PAA envelope reduction (the baseline in every figure).

    ``L_i = min(frame of lower side)``, ``U_i = max(frame of upper
    side)``: the piecewise-constant band that bounds but does not
    intersect the envelope.  Container-invariant, but strictly looser
    than :class:`NewPAAEnvelopeTransform` whenever the envelope varies
    within a frame.
    """

    def __init__(self, input_length: int, n_frames: int, *,
                 metric: str = "euclidean") -> None:
        norm = "l2" if metric == "euclidean" else "l1"
        paa = PAATransform(input_length, n_frames, norm=norm)
        super().__init__(paa, name="Keogh_PAA")
        self._bounds = paa.frame_bounds
        # Scaling per frame keeps feature-space distances comparable to
        # the scaled PAA features: sqrt(width) for L2, width for L1.
        widths = np.diff(self._bounds).astype(np.float64)
        self._scale = np.sqrt(widths) if norm == "l2" else widths

    def reduce(self, envelope: Envelope) -> Envelope:
        self._check_length(envelope)
        n_frames = self.output_dim
        lower = np.empty(n_frames)
        upper = np.empty(n_frames)
        for j in range(n_frames):
            lo, hi = self._bounds[j], self._bounds[j + 1]
            lower[j] = envelope.lower[lo:hi].min()
            upper[j] = envelope.upper[lo:hi].max()
        return Envelope(lower=lower * self._scale, upper=upper * self._scale)


class NaiveEnvelopeTransform(EnvelopeTransform):
    """Ablation: transform each envelope side directly, ignoring signs.

    ``E^U = T(e^U)``, ``E^L = T(e^L)`` with the bounds re-sorted
    pointwise so the result is still a valid band.  For transforms with
    any negative coefficient this is **not** container-invariant and
    admits false negatives; it exists to let the ablation benchmark
    quantify that failure.
    """

    def reduce(self, envelope: Envelope) -> Envelope:
        self._check_length(envelope)
        a = self.transform.matrix @ envelope.upper
        b = self.transform.matrix @ envelope.lower
        return Envelope(lower=np.minimum(a, b), upper=np.maximum(a, b))


def round_f32(values, toward: float) -> np.ndarray:
    """*values* as float32, each rounded toward ``-inf`` or ``+inf``.

    The nearest float32, stepped one ulp toward *toward* where it lies
    on the wrong side (``np.nextafter``'s result, by integer steps on
    the bit pattern: one step up the magnitude for a float on the far
    side of zero, one down otherwise; signed zeros step to the
    smallest subnormal of their sign).
    """
    values = np.asarray(values, dtype=np.float64)
    near = values.astype(np.float32)
    off = (near > values if toward < 0 else near < values).view(np.int8)
    away = np.signbit(near)
    if toward > 0:
        away = ~away
    near.view(np.int32)[...] += np.where(away, off, -off)
    return near


def row_paa_frames(n_features: int, n: int) -> int:
    """Frames of the row-envelope New_PAA column: ``min(2 N, n)``.

    Twice the query side's, because the column is computed once per
    row and stored, not once per query.
    """
    return min(2 * int(n_features), int(n))


def frame_means(rows, n_frames: int) -> np.ndarray:
    """Float64 PAA frame means of every row of a ``(rows, n)`` matrix,
    summed in float64 whatever the input dtype."""
    rows = np.asarray(rows).astype(np.float64, copy=False)
    starts, widths = _frames(rows.shape[1], n_frames)
    return np.add.reduceat(rows, starts, axis=1) / widths


@functools.lru_cache(maxsize=None)
def _frames(n: int, n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """PAA frame starts and widths (shared, read-only)."""
    bounds = PAATransform(n, n_frames).frame_bounds
    starts, widths = bounds[:-1], np.diff(bounds).astype(np.float64)
    starts.flags.writeable = widths.flags.writeable = False
    return starts, widths


def envelope_paa(lower, upper, n_frames: int) -> np.ndarray:
    """New_PAA of every row's envelope: ``(rows, 2 * n_frames)`` float32.

    Columns ``[:n_frames]`` are the frame means of each row of *lower*,
    rounded down to float32, and ``[n_frames:]`` those of *upper*,
    rounded up: each stored pair brackets the exact means, so a bound
    computed from it never exceeds New_PAA of the exact envelope.  The
    means come from :func:`frame_means`, :data:`_PAA_BLOCK_ROWS` rows
    at a time (their own few-ulp float64 error sits far inside the
    engine's pruning guard).
    """
    lower = np.asarray(lower)
    upper = np.asarray(upper)
    if lower.shape != upper.shape or lower.ndim != 2:
        raise ValueError(
            f"envelope sides must be two equal 2-D arrays, got "
            f"{lower.shape} and {upper.shape}"
        )
    rows = lower.shape[0]
    out = np.empty((rows, 2 * n_frames), dtype=np.float32)
    for start in range(0, rows, _PAA_BLOCK_ROWS):
        block = slice(start, start + _PAA_BLOCK_ROWS)
        out[block, :n_frames] = round_f32(
            frame_means(lower[block], n_frames), -np.inf)
        out[block, n_frames:] = round_f32(
            frame_means(upper[block], n_frames), np.inf)
    return out

"""Linear dimensionality-reduction transforms (GEMINI feature extractors).

Every transform here is *linear* — it exposes its full coefficient
matrix ``A`` (shape ``N x n``), so the envelope transform of Lemma 3 can
be derived from it mechanically — and *lower-bounding* — its rows form a
partial orthonormal system, so plain Euclidean distance between feature
vectors never exceeds the Euclidean distance between the original
series:

.. math:: D(T(x), T(y)) \\le D(x, y).

Implemented transforms:

* :class:`PAATransform` — Piecewise Aggregate Approximation (frame
  means, scaled by ``sqrt(n/N)``); the transform the paper builds its
  New_PAA envelope reduction from.  All coefficients are positive,
  which is why its envelope transform stays tight (Section 4.3).
* :class:`DFTTransform` — first Fourier coefficients as real
  cosine/sine rows (orthonormal real DFT basis).
* :class:`HaarTransform` — coarsest coefficients of the orthonormal
  Haar wavelet basis.
* :class:`SVDTransform` — data-adapted basis from the top right
  singular vectors of a training matrix.
* :class:`IdentityTransform` — no reduction; used for the full-envelope
  LB bound that serves as a sanity ceiling in the experiments.
"""

from __future__ import annotations

import numpy as np

from .series import as_series

__all__ = [
    "LinearTransform",
    "PAATransform",
    "DFTTransform",
    "HaarTransform",
    "SVDTransform",
    "ChebyshevTransform",
    "RandomProjectionTransform",
    "IdentityTransform",
]

# Rows per block of :meth:`LinearTransform.transform_batch` (the last
# block takes the remainder too): a 1 024 x 128 float64 block is 1 MB,
# against 10 MB for a whole 10^4-row corpus.
_BATCH_ROWS = 1024


class LinearTransform:
    """A linear map ``R^n -> R^N`` given by an explicit matrix.

    Parameters
    ----------
    matrix:
        Coefficient matrix of shape ``(N, n)``; feature ``X_j`` is
        ``sum_i matrix[j, i] * x_i``.
    name:
        Human-readable name used in benchmark output.
    """

    def __init__(self, matrix, *, name: str | None = None,
                 metrics: tuple[str, ...] = ("euclidean",)) -> None:
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError(f"coefficient matrix must be 2-D, got shape {mat.shape}")
        if mat.shape[0] > mat.shape[1]:
            raise ValueError(
                "a dimensionality reduction cannot have more outputs "
                f"than inputs: {mat.shape}"
            )
        self._matrix = mat
        self.name = name or type(self).__name__
        #: Ground metrics under which feature-space distance
        #: lower-bounds original distance.
        self.metrics = metrics

    @property
    def matrix(self) -> np.ndarray:
        """The ``(N, n)`` coefficient matrix (read-only view)."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    @property
    def input_length(self) -> int:
        return self._matrix.shape[1]

    @property
    def output_dim(self) -> int:
        return self._matrix.shape[0]

    def transform(self, series) -> np.ndarray:
        """Map one series of length ``n`` to its ``N``-dim feature vector."""
        arr = as_series(series)
        if arr.size != self.input_length:
            raise ValueError(
                f"{self.name} expects length {self.input_length}, got {arr.size}"
            )
        return self._matrix @ arr

    def transform_batch(self, data) -> np.ndarray:
        """Map a ``(m, n)`` matrix of series to ``(m, N)`` float64
        features.

        Rows are upcast to float64 about 1 024 at a time,
        so a float32 corpus (a store's memory-mapped rows) never has a
        corpus-sized float64 copy; the features equal one
        whole-matrix product's bit for bit.
        """
        mat = np.asarray(data)
        if mat.ndim != 2 or mat.shape[1] != self.input_length:
            raise ValueError(
                f"{self.name} expects shape (m, {self.input_length}), "
                f"got {mat.shape}"
            )
        rows = mat.shape[0]
        coeffs = self._matrix.T
        out = np.empty((rows, self.output_dim))
        # Every block but a whole small matrix has at least _BATCH_ROWS
        # rows (the last one takes the remainder): BLAS computes small
        # products with other kernels, whose sums round differently,
        # and the features would then depend on the blocking.
        blocks = max(rows // _BATCH_ROWS, 1)
        edges = [i * _BATCH_ROWS for i in range(blocks)] + [rows]
        for start, stop in zip(edges, edges[1:]):
            np.matmul(mat[start:stop].astype(np.float64, copy=False),
                      coeffs, out=out[start:stop])
        return out

    def __call__(self, series) -> np.ndarray:
        return self.transform(series)

    def is_lower_bounding(self, *, atol: float = 1e-9) -> bool:
        """Check the partial-orthonormality condition ``A A^T <= I``.

        A linear map contracts Euclidean distances iff its largest
        singular value is at most 1.
        """
        smax = float(np.linalg.norm(self._matrix, ord=2))
        return smax <= 1.0 + atol

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.input_length}, N={self.output_dim})"
        )


def _frame_bounds(n: int, n_frames: int) -> np.ndarray:
    """Frame boundary indices splitting ``n`` samples into ``n_frames``.

    Frames are as equal as possible; when ``n_frames`` divides ``n``
    they all have length ``n / n_frames`` as in the paper.
    """
    return np.round(np.linspace(0, n, n_frames + 1)).astype(np.int64)


class PAATransform(LinearTransform):
    """Piecewise Aggregate Approximation with lower-bounding scaling.

    With ``norm="l2"`` (the paper's), feature ``j`` is
    ``sqrt(w_j) * mean(frame_j)``: the rows are orthonormal, so
    Euclidean feature distance lower-bounds Euclidean series distance.
    With ``norm="l1"``, feature ``j`` is the plain frame *sum*
    ``w_j * mean(frame_j)``: by the triangle inequality
    ``|sum(x - y)| <= sum|x - y|`` per frame, so Manhattan feature
    distance lower-bounds Manhattan series distance — the
    "modification" the paper alludes to for other metrics.  Either
    way every coefficient is positive.  Use :meth:`frame_means` for
    the unscaled averages in the paper's notation.
    """

    def __init__(self, input_length: int, n_frames: int, *,
                 norm: str = "l2") -> None:
        if n_frames < 1:
            raise ValueError(f"number of frames must be >= 1, got {n_frames}")
        if n_frames > input_length:
            raise ValueError(
                f"cannot split {input_length} samples into {n_frames} frames"
            )
        if norm not in ("l2", "l1"):
            raise ValueError(f"norm must be 'l2' or 'l1', got {norm!r}")
        bounds = _frame_bounds(input_length, n_frames)
        matrix = np.zeros((n_frames, input_length))
        for j in range(n_frames):
            lo, hi = bounds[j], bounds[j + 1]
            width = hi - lo
            matrix[j, lo:hi] = 1.0 / np.sqrt(width) if norm == "l2" else 1.0
        metrics = ("euclidean",) if norm == "l2" else ("manhattan",)
        super().__init__(matrix, name=f"PAA({n_frames})", metrics=metrics)
        self._bounds = bounds
        self.norm = norm

    @property
    def frame_bounds(self) -> np.ndarray:
        return self._bounds.copy()

    def frame_means(self, series) -> np.ndarray:
        """Unscaled frame averages (``X_i = (N/n) * sum`` in the paper)."""
        arr = as_series(series)
        if arr.size != self.input_length:
            raise ValueError(
                f"PAA expects length {self.input_length}, got {arr.size}"
            )
        return np.array(
            [
                arr[self._bounds[j] : self._bounds[j + 1]].mean()
                for j in range(self.output_dim)
            ]
        )


class DFTTransform(LinearTransform):
    """First Fourier coefficients in an orthonormal real basis.

    The rows are, in order: the DC component, then cosine and sine rows
    for frequencies 1, 2, ... — i.e. the real and imaginary parts of
    the low DFT coefficients, which carry most of the energy of smooth
    series (Agrawal et al. 1993).

    Parameters
    ----------
    input_length:
        Series length ``n``.
    output_dim:
        Number of real coefficients to keep (DC + cos/sin pairs).
    """

    def __init__(self, input_length: int, output_dim: int) -> None:
        if output_dim < 1:
            raise ValueError(f"output dimension must be >= 1, got {output_dim}")
        if output_dim > input_length:
            raise ValueError(
                f"cannot keep {output_dim} coefficients of a length-"
                f"{input_length} series"
            )
        n = input_length
        t = np.arange(n)
        rows = [np.full(n, 1.0 / np.sqrt(n))]
        freq = 1
        while len(rows) < output_dim:
            angle = 2.0 * np.pi * freq * t / n
            cos_row = np.cos(angle)
            sin_row = np.sin(angle)
            # At the Nyquist frequency (even n) the sine row is zero and
            # the cosine row has norm sqrt(n) instead of sqrt(n/2).
            cos_norm = np.linalg.norm(cos_row)
            rows.append(cos_row / cos_norm)
            if len(rows) < output_dim:
                sin_norm = np.linalg.norm(sin_row)
                if sin_norm > 1e-12:
                    rows.append(sin_row / sin_norm)
            freq += 1
            if freq > n:  # pragma: no cover - guarded by output_dim check
                break
        super().__init__(np.array(rows[:output_dim]), name=f"DFT({output_dim})")


def _haar_matrix(n: int) -> np.ndarray:
    """Full orthonormal Haar matrix for ``n`` a power of two.

    Rows are ordered coarse-to-fine: the scaling (average) row first,
    then difference rows of increasing resolution.
    """
    if n & (n - 1) != 0:
        raise ValueError(f"Haar transform requires a power-of-two length, got {n}")
    mat = np.array([[1.0]])
    while mat.shape[0] < n:
        m = mat.shape[0]
        top = np.kron(mat, np.array([1.0, 1.0])) / np.sqrt(2.0)
        bottom = np.kron(np.eye(m), np.array([1.0, -1.0])) / np.sqrt(2.0)
        mat = np.vstack([top, bottom])
    return mat


class HaarTransform(LinearTransform):
    """Coarsest ``N`` coefficients of the orthonormal Haar wavelet.

    Requires a power-of-two input length (standard for DWT indexing,
    cf. Chan & Fu 1999).
    """

    def __init__(self, input_length: int, output_dim: int) -> None:
        if output_dim < 1:
            raise ValueError(f"output dimension must be >= 1, got {output_dim}")
        if output_dim > input_length:
            raise ValueError(
                f"cannot keep {output_dim} coefficients of a length-"
                f"{input_length} series"
            )
        full = _haar_matrix(input_length)
        super().__init__(full[:output_dim], name=f"DWT({output_dim})")


class SVDTransform(LinearTransform):
    """Data-adapted basis: top right singular vectors of a training set.

    SVD is the optimal linear reduction for Euclidean distance on the
    training distribution (Korn et al. 1997); the paper uses it as the
    strongest Euclidean competitor in Figure 7.
    """

    def __init__(self, components, *, name: str | None = None) -> None:
        comp = np.asarray(components, dtype=np.float64)
        super().__init__(comp, name=name or f"SVD({comp.shape[0]})")

    @classmethod
    def fit(cls, data, output_dim: int, *, center: bool = False) -> "SVDTransform":
        """Fit the basis on a ``(m, n)`` matrix of training series.

        Parameters
        ----------
        data:
            Training series, one per row.
        output_dim:
            Number of components ``N`` to keep.
        center:
            Subtract the column means before the decomposition.  The
            default is off because the indexing pipeline already works
            on shift-normalised series.
        """
        mat = np.asarray(data, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError(f"training data must be 2-D, got shape {mat.shape}")
        if output_dim < 1 or output_dim > mat.shape[1]:
            raise ValueError(
                f"output dimension must be in [1, {mat.shape[1]}], got {output_dim}"
            )
        if center:
            mat = mat - mat.mean(axis=0)
        _, _, vt = np.linalg.svd(mat, full_matrices=False)
        if vt.shape[0] < output_dim:
            raise ValueError(
                f"training data has rank {vt.shape[0]} < {output_dim} components"
            )
        return cls(vt[:output_dim])


class ChebyshevTransform(LinearTransform):
    """Low-order Chebyshev-polynomial coefficients.

    The basis later popularised for trajectory indexing (Cai & Ng,
    SIGMOD 2004): Chebyshev polynomials of the first kind sampled on
    the series' time axis, then orthonormalised (QR) so the partial
    system is exactly lower-bounding.  Smooth series concentrate their
    energy in the first few polynomials the way DFT concentrates
    periodic energy in low frequencies.
    """

    def __init__(self, input_length: int, output_dim: int) -> None:
        if output_dim < 1:
            raise ValueError(f"output dimension must be >= 1, got {output_dim}")
        if output_dim > input_length:
            raise ValueError(
                f"cannot keep {output_dim} coefficients of a length-"
                f"{input_length} series"
            )
        # Chebyshev points mapped onto the sample grid.
        t = np.linspace(-1.0, 1.0, input_length)
        basis = np.polynomial.chebyshev.chebvander(t, output_dim - 1)
        # Orthonormalise the columns (QR) so rows of Q^T are a partial
        # orthonormal system over the discrete grid.
        q, _ = np.linalg.qr(basis)
        super().__init__(q.T, name=f"Chebyshev({output_dim})")


class RandomProjectionTransform(LinearTransform):
    """Gaussian random projection, spectrally normalised.

    Johnson-Lindenstrauss-style reduction: random rows preserve
    distances *approximately*; dividing by the largest singular value
    makes the map a strict contraction, so it is sound for GEMINI
    (no false negatives) at the cost of extra slack.  Included as the
    data-oblivious baseline of the transform family.
    """

    def __init__(self, input_length: int, output_dim: int, *,
                 seed: int = 0) -> None:
        if output_dim < 1:
            raise ValueError(f"output dimension must be >= 1, got {output_dim}")
        if output_dim > input_length:
            raise ValueError(
                f"cannot keep {output_dim} dimensions of a length-"
                f"{input_length} series"
            )
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(output_dim, input_length))
        matrix /= np.linalg.norm(matrix, ord=2)
        super().__init__(matrix, name=f"RandomProj({output_dim})")


class IdentityTransform(LinearTransform):
    """The identity map — no dimensionality reduction.

    Feature space equals the original space, so the envelope bound it
    induces is exactly LB_Keogh.  Used as the "LB" ceiling in Figures
    6 and 7.
    """

    def __init__(self, input_length: int) -> None:
        super().__init__(np.eye(input_length), name="LB")

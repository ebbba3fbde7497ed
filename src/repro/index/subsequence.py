"""Subsequence matching under DTW (Section 3.2, option 1).

The paper chooses whole-sequence matching over pre-segmented melodies,
noting that subsequence queries "are generally slower ... because the
size of the potential candidate sequences is much larger".  This
module implements that other option in the FRM tradition (Faloutsos,
Ranganathan & Manolopoulos 1994): slide windows over each long
sequence, bring every window to the shift/tempo normal form, index the
reduced features, and answer a hum query with the warping index's
filter-and-refine — so a user can hum *any part* of a full song.

Tempo mismatch between hum and song is handled the same way the whole-
sequence system handles it — the UTW normal form — plus optional
multi-scale windows: indexing windows of several lengths lets a
half-speed hum align with a window covering twice the music.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.envelope import k_envelope, warping_width_to_k
from ..core.envelope_transforms import EnvelopeTransform, NewPAAEnvelopeTransform
from ..core.normal_form import NormalForm
from ..dtw.distance import ldtw_distance, ldtw_distance_batch, ldtw_refiner
from ..obs import OBS_DISABLED, Observability
from ..obs.clock import monotonic_s
from .gridfile import GridFile
from .linear_scan import LinearScan
from .rstartree import RStarTree
from .stats import QueryStats

__all__ = ["SubsequenceMatch", "SubsequenceIndex", "sliding_windows"]


def sliding_windows(size: int, window_lengths: Sequence[int],
                    stride: int):
    """``(start, length)`` of every window of a *size*-sample sequence.

    Window lengths in the given order, each slid from offset 0 by
    *stride*; a length longer than the sequence yields nothing.  The
    in-memory index and the streaming store builder both window with
    this, so their rows are the same windows in the same order.
    """
    for length in window_lengths:
        for start in range(0, size - length + 1, stride):
            yield start, length


@dataclass(frozen=True)
class SubsequenceMatch:
    """One matching window of a database sequence.

    Attributes
    ----------
    sequence_id:
        Identifier of the containing sequence.
    start:
        Window offset in original samples.
    length:
        Window length in original samples.
    distance:
        Constrained DTW distance between the window's and the query's
        normal forms.
    """

    sequence_id: object
    start: int
    length: int
    distance: float


class SubsequenceIndex:
    """ε-range and k-NN *subsequence* queries under constrained DTW.

    Parameters
    ----------
    sequences:
        Long time series (e.g. full songs as pitch series).
    window_lengths:
        Window sizes (in samples) to index.  Several sizes make the
        search robust to hum/song tempo ratios beyond what the normal
        form absorbs.
    stride:
        Offset step between windows, in samples (trades index size
        against positional resolution).
    delta:
        DTW warping width.
    normal_form:
        Normalisation applied to windows and queries.
    obs:
        An :class:`~repro.obs.Observability` facade for the window
        query paths (``index.*`` metrics).  Default ``None`` =
        disabled.
    """

    def __init__(
        self,
        sequences: Sequence,
        *,
        window_lengths: Sequence[int] = (64,),
        stride: int = 16,
        delta: float = 0.1,
        env_transform: EnvelopeTransform | None = None,
        n_features: int = 8,
        normal_form: NormalForm | None = None,
        index_kind: str = "rstar",
        capacity: int = 50,
        ids: Sequence | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.obs = OBS_DISABLED if obs is None else obs
        if not len(sequences):
            raise ValueError("sequence database must not be empty")
        self.store = None
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if not window_lengths or any(w < 2 for w in window_lengths):
            raise ValueError("window lengths must be >= 2")
        self.normal_form = normal_form or NormalForm(length=64)
        if self.normal_form.length is None:
            raise ValueError("SubsequenceIndex requires a fixed normal-form length")
        self.normal_length = self.normal_form.length
        self.delta = delta
        self.band = warping_width_to_k(delta, self.normal_length)
        self.env_transform = env_transform or NewPAAEnvelopeTransform(
            self.normal_length, n_features
        )
        if self.env_transform.input_length != self.normal_length:
            raise ValueError(
                "envelope transform length does not match the normal form"
            )
        if ids is None:
            ids = list(range(len(sequences)))
        else:
            ids = list(ids)
            if len(ids) != len(sequences):
                raise ValueError(f"{len(sequences)} sequences but {len(ids)} ids")
        self.ids = ids
        self._sequences = [
            np.asarray(seq, dtype=np.float64) for seq in sequences
        ]

        windows: list[tuple[int, int, int]] = []  # (seq_row, start, length)
        normalized: list[np.ndarray] = []
        for row, seq in enumerate(self._sequences):
            if seq.ndim != 1:
                raise ValueError("sequences must be 1-D arrays")
            for start, length in sliding_windows(seq.size, window_lengths,
                                                 stride):
                windows.append((row, start, length))
                normalized.append(
                    self.normal_form.apply(seq[start : start + length])
                )
        if not windows:
            raise ValueError(
                "no windows extracted: every sequence is shorter than the "
                "smallest window length"
            )
        self._windows = windows
        self._normalized = np.vstack(normalized)
        self._lb_slack = 0.0
        features = self.env_transform.transform.transform_batch(self._normalized)
        window_ids = list(range(len(windows)))
        if index_kind == "rstar":
            self._index = RStarTree.bulk_load(features, window_ids,
                                              capacity=capacity)
        elif index_kind == "grid":
            self._index = GridFile(features, window_ids)
        elif index_kind == "linear":
            self._index = LinearScan(features, window_ids, capacity=capacity)
        else:
            raise ValueError(f"unknown index kind {index_kind!r}")

    @classmethod
    def from_store(cls, store, *,
                   obs: Observability | None = None) -> "SubsequenceIndex":
        """Open a columnar subsequence-store generation as a live index.

        Window normal forms stay in the store's memory-mapped float32
        columns; the window R*-tree is STR-bulk-loaded, with the
        manifest's page capacity, from the stored float32 feature
        column, with range searches and k-NN cutoffs
        slackened by the manifest's ``feature_margin`` so answers stay
        exact (zero false negatives) for the stored corpus.  The raw
        sequences are not retained — re-windowing requires the original
        corpus — but every query path works from the columns alone.
        """
        from ..ingest.builder import transform_from_config

        manifest = store.manifest
        if manifest.kind != "subsequence":
            raise ValueError(
                f"store kind {manifest.kind!r} is not a subsequence store "
                f"(use WarpingIndex.from_store)"
            )
        if manifest.metric != "euclidean":
            raise ValueError(
                "SubsequenceIndex only supports the euclidean metric"
            )
        self = cls.__new__(cls)
        self.obs = OBS_DISABLED if obs is None else obs
        cfg = manifest.config
        nf = cfg.get("normal_form", {})
        self.normal_form = NormalForm(
            length=nf.get("length", manifest.normal_length),
            shift=nf.get("shift", True),
            scale=nf.get("scale", False),
        )
        self.normal_length = manifest.normal_length
        self.delta = float(cfg.get("delta", 0.1))
        self.band = warping_width_to_k(self.delta, self.normal_length)
        spec = cfg.get("env_transform")
        self.env_transform = (
            transform_from_config(spec, metric=manifest.metric) if spec
            else NewPAAEnvelopeTransform(self.normal_length,
                                         manifest.n_features)
        )
        if self.env_transform.input_length != self.normal_length:
            raise ValueError(
                "store's envelope transform does not match its normal form"
            )
        self.ids = store.ids
        self._sequences = None
        meta = np.asarray(store.meta)
        self._windows = [(int(row), int(start), int(length))
                         for row, start, length in meta]
        if self._windows and int(meta[:, 0].max()) >= len(self.ids):
            raise ValueError("store meta references out-of-range ids")
        self._normalized = store.normalized
        margin = store.feature_margin
        dim = self.env_transform.output_dim
        self._lb_slack = margin * math.sqrt(dim) if margin > 0 else 0.0
        window_ids = list(range(len(self._windows)))
        self._index = RStarTree.bulk_load(
            store.features, window_ids,
            capacity=int(cfg.get("capacity", 50)),
        )
        self.store = store
        return self

    @property
    def window_count(self) -> int:
        return len(self._windows)

    def __len__(self) -> int:
        if self._sequences is None:
            return len(self.ids)
        return len(self._sequences)

    def _match(self, window_row: int, distance: float) -> SubsequenceMatch:
        row, start, length = self._windows[window_row]
        return SubsequenceMatch(
            sequence_id=self.ids[row], start=start, length=length,
            distance=distance,
        )

    def _query_rectangle(self, query):
        q = self.normal_form.apply(query)
        feature_env = self.env_transform.reduce(k_envelope(q, self.band))
        return q, feature_env.lower, feature_env.upper

    @staticmethod
    def _dedup(matches: list[SubsequenceMatch]) -> list[SubsequenceMatch]:
        """Keep the best window per sequence."""
        best: dict[object, SubsequenceMatch] = {}
        for match in matches:
            kept = best.get(match.sequence_id)
            if kept is None or match.distance < kept.distance:
                best[match.sequence_id] = match
        return sorted(best.values(), key=lambda m: m.distance)

    def range_query(
        self, query, epsilon: float, *, best_per_sequence: bool = True
    ) -> tuple[list[SubsequenceMatch], QueryStats]:
        """All windows within DTW distance *epsilon* of the query.

        With *best_per_sequence* (default) overlapping hits collapse to
        the best window of each sequence — the "which song is this"
        answer; set it False for every matching offset.
        """
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        started = monotonic_s()
        q, rect_lower, rect_upper = self._query_rectangle(query)
        self._index.reset_stats()
        candidates = self._index.range_search(
            rect_lower, rect_upper, epsilon + self._lb_slack
        )
        stats = QueryStats(
            candidates=len(candidates), page_accesses=self._index.page_accesses
        )
        matches = []
        if candidates:
            dists = ldtw_distance_batch(
                q, self._normalized[candidates], self.band,
                upper_bound=epsilon,
            )
            stats.dtw_computations = len(candidates)
            matches = [
                self._match(window_row, float(dist))
                for window_row, dist in zip(candidates, dists)
                if dist <= epsilon
            ]
        if best_per_sequence:
            matches = self._dedup(matches)
        else:
            matches.sort(key=lambda m: m.distance)
        stats.results = len(matches)
        self.obs.record_index_query(
            "subsequence_range", stats, monotonic_s() - started
        )
        return matches, stats

    def knn_query(
        self, query, k: int, *, best_per_sequence: bool = True
    ) -> tuple[list[SubsequenceMatch], QueryStats]:
        """The *k* closest windows (or sequences) to the query.

        Optimal multi-step over the window index; with
        *best_per_sequence*, k counts distinct sequences.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        started = monotonic_s()
        q, rect_lower, rect_upper = self._query_rectangle(query)
        refine = ldtw_refiner(q, self.band)
        self._index.reset_stats()
        stats = QueryStats()
        # best distance (and its window) per dedup key; when not
        # deduplicating, every window is its own key.
        per_key: dict[object, tuple[float, int]] = {}

        def kth() -> float:
            if len(per_key) < k:
                return math.inf
            distances = sorted(dist for dist, _ in per_key.values())
            return distances[k - 1]

        for lower_bound, window_row in self._index.nearest(rect_lower, rect_upper):
            cutoff = kth()
            # _lb_slack deflates bounds computed from float32-stored
            # features so the cutoff stays sound for store-backed indexes.
            if lower_bound - self._lb_slack > cutoff:
                break
            stats.candidates += 1
            dist = refine(
                self._normalized[window_row],
                None if math.isinf(cutoff) else cutoff,
            )
            stats.dtw_computations += 1
            if not math.isfinite(dist):
                continue
            if best_per_sequence:
                key = self.ids[self._windows[window_row][0]]
            else:
                key = window_row
            kept = per_key.get(key)
            if kept is None or dist < kept[0]:
                per_key[key] = (dist, window_row)
        stats.page_accesses = self._index.page_accesses

        ranked = sorted(per_key.values())[:k]
        matches = [self._match(row, dist) for dist, row in ranked]
        stats.results = len(matches)
        self.obs.record_index_query(
            "subsequence_knn", stats, monotonic_s() - started
        )
        return matches, stats

    def ground_truth_range(
        self, query, epsilon: float, *, best_per_sequence: bool = True
    ) -> list[SubsequenceMatch]:
        """Exact answer by scanning every window (test oracle)."""
        q = self.normal_form.apply(query)
        matches = []
        for window_row in range(len(self._windows)):
            dist = ldtw_distance(q, self._normalized[window_row], self.band)
            if dist <= epsilon:
                matches.append(self._match(window_row, dist))
        if best_per_sequence:
            return self._dedup(matches)
        matches.sort(key=lambda m: m.distance)
        return matches

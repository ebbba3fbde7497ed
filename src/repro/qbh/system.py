"""The end-to-end query-by-humming system (Section 3).

Glues the substrates together exactly as the paper's architecture
diagram does:

* a **database of music**: melodies as ``(note, duration)`` tuples,
  expanded to piecewise-constant pitch time series;
* an **index**: the GEMINI warping index over their normal forms;
* **user humming**: a pitch time series from the tracker (or from a
  singer model), normalised the same way and matched with
  shift-invariant, tempo-invariant, locally-warped DTW.

Whole-sequence matching is used: the database stores pre-segmented
melodic sections (15-30 notes) rather than entire songs, as the paper
chooses in Section 3.2.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.normal_form import NormalForm
from ..dtw.distance import ldtw_distance_batch
from ..hum.pitch_tracking import track_pitch
from ..index.gemini import WarpingIndex
from ..index.stats import QueryStats
from ..music.melody import Melody

__all__ = ["QueryByHummingSystem"]


class QueryByHummingSystem:
    """A searchable melody database for hummed queries.

    Parameters
    ----------
    melodies:
        The melody database (pre-segmented melodic sections).
    delta:
        Warping width of the DTW distance (0.1 is the paper's default
        sweet spot — Table 3).
    normal_length:
        UTW normal-form length for all series.
    n_features:
        Reduced dimensionality of the index.
    index_kind:
        ``"rstar"``, ``"grid"``, or ``"linear"``.
    samples_per_beat:
        Sampling of the melody time series.
    env_transform:
        Optional custom envelope transform (defaults to New_PAA).
    dtw_backend:
        DTW kernel backend for exact refinement (``"vectorized"``
        default, ``"scalar"`` reference) — a serving knob, results
        are identical.
    obs:
        An :class:`~repro.obs.Observability` facade, passed through to
        the underlying :class:`~repro.index.gemini.WarpingIndex` (and
        from there to the cascade engines), so a hummed query traces
        and meters end to end.  Default ``None`` = disabled.
    """

    def __init__(
        self,
        melodies: Sequence[Melody],
        *,
        delta: float = 0.1,
        normal_length: int = 128,
        n_features: int = 8,
        index_kind: str = "rstar",
        samples_per_beat: int = 8,
        env_transform=None,
        capacity: int = 50,
        dtw_backend: str | None = None,
        obs=None,
    ) -> None:
        if not melodies:
            raise ValueError("melody database must not be empty")
        self.melodies = list(melodies)
        self.names = [
            melody.name or f"melody{i}" for i, melody in enumerate(self.melodies)
        ]
        self.samples_per_beat = samples_per_beat
        series = [m.to_time_series(samples_per_beat) for m in self.melodies]
        self.index = WarpingIndex(
            series,
            delta=delta,
            env_transform=env_transform,
            n_features=n_features,
            normal_form=NormalForm(length=normal_length, shift=True),
            index_kind=index_kind,
            capacity=capacity,
            dtw_backend=dtw_backend,
            obs=obs,
        )

    def __len__(self) -> int:
        return len(self.melodies)

    @property
    def obs(self):
        """The attached observability facade (the index's)."""
        return self.index.obs

    def set_observability(self, obs) -> None:
        """Attach (or detach, with ``None``) an observability facade.

        Delegates to
        :meth:`repro.index.gemini.WarpingIndex.set_observability`, so
        cached cascade engines pick the facade up immediately.
        """
        self.index.set_observability(obs)

    @property
    def delta(self) -> float:
        return self.index.delta

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def query(
        self, pitch_series, k: int = 10, *, collapse_duplicates: bool = False
    ) -> tuple[list[tuple[str, float]], QueryStats]:
        """Top-*k* melodies for a hummed pitch time series.

        Returns ``(results, stats)``; results are ``(melody_name,
        dtw_distance)`` pairs, best first.

        With *collapse_duplicates*, note-for-note identical melodies
        (phrase repetition produces them when songs are segmented)
        count as one result slot: the user sees *k* distinct tunes
        rather than the same tune at several tied ranks.
        """
        if not collapse_duplicates:
            hits, stats = self.index.knn_query(pitch_series, k)
            return [(self.names[idx], dist) for idx, dist in hits], stats
        # Over-fetch, then keep the best representative per duplicate
        # group until k distinct tunes are collected.
        fetch = min(len(self), k * 4)
        hits, stats = self.index.knn_query(pitch_series, fetch)
        group_of = self._duplicate_groups()
        results: list[tuple[str, float]] = []
        seen_groups: set[int] = set()
        for idx, dist in hits:
            group = group_of[idx]
            if group in seen_groups:
                continue
            seen_groups.add(group)
            results.append((self.names[idx], dist))
            if len(results) == k:
                break
        return results, stats

    def _duplicate_groups(self) -> dict[int, int]:
        """Map melody index -> duplicate-group id (cached)."""
        if not hasattr(self, "_dup_groups"):
            keys: dict[tuple, int] = {}
            groups: dict[int, int] = {}
            for idx, melody in enumerate(self.melodies):
                key = tuple((n.pitch, n.duration) for n in melody)
                groups[idx] = keys.setdefault(key, idx)
            self._dup_groups = groups
        return self._dup_groups

    def query_range(
        self, pitch_series, epsilon: float
    ) -> tuple[list[tuple[str, float]], QueryStats]:
        """All melodies within DTW distance *epsilon* of the hum."""
        hits, stats = self.index.range_query(pitch_series, epsilon)
        return [(self.names[idx], dist) for idx, dist in hits], stats

    def query_cascade(self, pitch_series, k: int = 10, *, stages=None,
                      dtw_backend=None):
        """Top-*k* melodies via the batched filter-cascade engine.

        Returns the same exact answer as :meth:`query`, but evaluated
        with :class:`~repro.engine.QueryEngine` — vectorised
        lower-bound stages followed by best-first, early-abandoning
        exact DTW — and returns a
        :class:`~repro.engine.CascadeStats` whose per-stage counters
        show where candidates were pruned (``repro query --stats``
        prints it).
        """
        hits, stats = self.index.cascade_knn_query(
            pitch_series, k, stages=stages, dtw_backend=dtw_backend
        )
        return [(self.names[idx], dist) for idx, dist in hits], stats

    def query_audio(
        self, waveform, *, sample_rate: int = 8000, k: int = 10
    ) -> tuple[list[tuple[str, float]], QueryStats]:
        """Top-*k* melodies for raw hum audio (runs the pitch tracker)."""
        track = track_pitch(waveform, sample_rate=sample_rate)
        pitches = track.pitch_series()
        if pitches.size < 2:
            raise ValueError("no voiced frames found in the audio")
        return self.query(pitches, k)

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------

    def distances_to_all(self, pitch_series) -> np.ndarray:
        """Exact DTW distance from the hum to every database melody.

        Vectorised across the database (one banded DP over all rows),
        so full-scan evaluation of 1000 melodies takes milliseconds.
        """
        q = self.index.normal_form.apply(pitch_series)
        return ldtw_distance_batch(q, self.index._data, self.index.band)

    def rank_of(self, pitch_series, target_index: int) -> int:
        """1-based competition rank of the intended melody.

        One plus the number of database melodies strictly closer to
        the hum than the target (ties do not penalise).
        """
        if not 0 <= target_index < len(self):
            raise ValueError(f"target index {target_index} out of range")
        dists = self.distances_to_all(pitch_series)
        return int(np.sum(dists < dists[target_index])) + 1

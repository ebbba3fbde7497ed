"""Failure-injection sweep: adversarial inputs across the public API.

Every public entry point must reject malformed input with ``ValueError``
(or a documented exception) — never crash with IndexError/TypeError or
silently produce garbage.
"""

import numpy as np
import pytest

from repro import (
    Melody,
    Note,
    WarpingIndex,
    dtw_distance,
    k_envelope,
    lb_keogh,
    ldtw_distance,
    normalize,
)
from repro.core.normal_form import NormalForm

BAD_SERIES = [
    [],                       # empty
    [np.nan],                 # NaN
    [np.inf, 1.0],            # inf
    np.zeros((2, 2)),         # wrong rank
]


class TestSeriesEntryPoints:
    @pytest.mark.parametrize("bad", BAD_SERIES)
    def test_normalize_rejects(self, bad):
        with pytest.raises(ValueError):
            normalize(bad)

    @pytest.mark.parametrize("bad", BAD_SERIES)
    def test_envelope_rejects(self, bad):
        with pytest.raises(ValueError):
            k_envelope(bad, 2)

    @pytest.mark.parametrize("bad", BAD_SERIES)
    def test_dtw_rejects(self, bad):
        with pytest.raises(ValueError):
            dtw_distance(bad, [1.0, 2.0])
        with pytest.raises(ValueError):
            ldtw_distance([1.0, 2.0], bad, 1)

    @pytest.mark.parametrize("bad", BAD_SERIES)
    def test_lb_keogh_rejects(self, bad):
        with pytest.raises(ValueError):
            lb_keogh(bad, [1.0, 2.0], 1)


class TestIndexEntryPoints:
    @pytest.fixture(scope="class")
    def index(self):
        rng = np.random.default_rng(1)
        walks = [np.cumsum(rng.normal(size=80)) for _ in range(20)]
        return WarpingIndex(walks, delta=0.1, normal_form=NormalForm(length=64))

    @pytest.mark.parametrize("bad", BAD_SERIES)
    def test_queries_reject_bad_series(self, index, bad):
        with pytest.raises(ValueError):
            index.range_query(bad, 1.0)
        with pytest.raises(ValueError):
            index.knn_query(bad, 3)

    def test_negative_parameters(self, index, rng):
        query = rng.normal(size=80)
        with pytest.raises(ValueError):
            index.range_query(query, -1.0)
        with pytest.raises(ValueError):
            index.knn_query(query, 0)

class TestMelodyEntryPoints:
    def test_note_bounds(self):
        for pitch, duration in ((0, 1.0), (200, 1.0), (60, 0.0), (60, -1.0)):
            with pytest.raises(ValueError):
                Note(pitch, duration)

    def test_melody_rejects_empty_and_bad(self):
        with pytest.raises(ValueError):
            Melody([])
        with pytest.raises(ValueError):
            Melody([(60, -1.0)])

    def test_time_series_bad_rate(self):
        melody = Melody([(60, 1.0)])
        with pytest.raises(ValueError):
            melody.to_time_series(0)


class TestHumEntryPoints:
    def test_track_pitch_rejects(self):
        from repro import track_pitch

        with pytest.raises(ValueError):
            track_pitch([])
        with pytest.raises(ValueError):
            track_pitch(np.zeros((2, 3)))

    def test_synthesize_rejects(self):
        from repro.hum.synthesis import synthesize_pitch_series

        with pytest.raises(ValueError):
            synthesize_pitch_series([])

    def test_segment_rejects(self):
        from repro.hum.segmentation import segment_notes

        with pytest.raises(ValueError):
            segment_notes([])


class TestExtremeButValidInputs:
    """Extreme magnitudes must flow through without overflow surprises."""

    def test_huge_values(self):
        x = np.full(32, 1e150)
        y = np.full(32, -1e150)
        d = ldtw_distance(x, y, 2)
        assert np.isinf(d) or d > 1e150  # overflow to inf is acceptable

    def test_tiny_values(self):
        x = np.full(32, 1e-200)
        y = np.zeros(32)
        assert ldtw_distance(x, y, 2) >= 0.0

    def test_single_point_series(self):
        assert dtw_distance([5.0], [7.0]) == pytest.approx(2.0)

    def test_length_one_index_query(self, rng):
        walks = [np.cumsum(rng.normal(size=80)) for _ in range(5)]
        index = WarpingIndex(walks, delta=0.1, normal_form=NormalForm(length=64))
        results, _ = index.range_query(np.array([3.0, 4.0]), 1e9)
        assert len(results) == 5

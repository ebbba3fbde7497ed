"""Property-based tests for the music substrate."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.music.contour import contour_string, edit_distance
from repro.music.melody import Melody

pitches = st.floats(min_value=36, max_value=96, allow_nan=False)
durations = st.floats(min_value=0.1, max_value=4.0, allow_nan=False)
note_lists = st.lists(st.tuples(pitches, durations), min_size=2, max_size=30)


@given(note_lists)
def test_time_series_length_tracks_beats(notes):
    melody = Melody(notes)
    series = melody.to_time_series(8)
    # Every note contributes at least one sample and about 8/beat.
    assert series.size >= len(melody)
    assert abs(series.size - melody.total_beats * 8) <= len(melody)


@given(note_lists, st.floats(-12, 12, allow_nan=False))
def test_transposition_preserves_contour(notes, shift):
    melody = Melody(notes)
    assert contour_string(melody) == contour_string(melody.transpose(shift))


@given(note_lists, st.floats(0.25, 4.0, allow_nan=False))
def test_tempo_scaling_preserves_pitches_and_ratios(notes, factor):
    melody = Melody(notes)
    scaled = melody.scale_tempo(factor)
    assert np.allclose(scaled.pitches(), melody.pitches())
    assert np.allclose(scaled.durations(), melody.durations() * factor)


@given(note_lists)
def test_roundtrip_through_series_preserves_run_structure(notes):
    melody = Melody(notes)
    series = melody.to_time_series(16)
    back = Melody.from_time_series(series, samples_per_beat=16)
    # Runs of equal pitch merge, so the round trip can only shrink.
    assert len(back) <= len(melody)
    assert back.total_beats == series.size / 16


@given(st.text(alphabet="UDS", max_size=15),
       st.text(alphabet="UDS", max_size=15),
       st.text(alphabet="UDS", max_size=15))
def test_edit_distance_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@given(st.text(alphabet="UDS", max_size=20),
       st.text(alphabet="UDS", max_size=20))
def test_edit_distance_metric_axioms(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)
    assert edit_distance(a, a) == 0
    assert edit_distance(a, b) >= abs(len(a) - len(b))

"""Property-based tests for the humming substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hum.segmentation import segment_notes
from repro.hum.singer import SingerProfile, hum_melody
from repro.music.melody import Melody

pitches = st.floats(min_value=45, max_value=75, allow_nan=False)
durations = st.floats(min_value=0.25, max_value=2.0, allow_nan=False)
note_lists = st.lists(st.tuples(pitches, durations), min_size=2, max_size=15)


@settings(max_examples=30, deadline=None)
@given(note_lists, st.integers(0, 2**31 - 1))
def test_perfect_singer_frames_cover_all_notes(notes, seed):
    melody = Melody(notes)
    rng = np.random.default_rng(seed)
    hum = hum_melody(melody, SingerProfile.perfect(), rng)
    sung_pitches = set(np.unique(hum).tolist())
    assert sung_pitches == {float(n.pitch) for n in melody}


@settings(max_examples=30, deadline=None)
@given(note_lists, st.integers(0, 2**31 - 1))
def test_better_singer_stays_in_register(notes, seed):
    """Register centering bounds the sung range: the melody's median
    note lands in the register, so every sung pitch stays within the
    register stretched by the melody's own span (plus error slack)."""
    melody = Melody(notes)
    rng = np.random.default_rng(seed)
    profile = SingerProfile.better()
    hum = hum_melody(melody, profile, rng)
    lo, hi = profile.voice_register
    span = float(melody.pitches().max() - melody.pitches().min())
    slack = 3.0
    assert hum.min() >= lo - span - slack
    assert hum.max() <= hi + span + slack


@settings(max_examples=25, deadline=None)
@given(note_lists, st.integers(0, 2**31 - 1))
def test_segmentation_never_invents_many_notes_for_perfect_hums(notes, seed):
    melody = Melody(notes)
    rng = np.random.default_rng(seed)
    hum = hum_melody(melody, SingerProfile.perfect(), rng)
    segmented = segment_notes(hum)
    # Adjacent equal-pitch notes merge; tiny notes may vanish — but a
    # clean hum must never explode into fragments.
    assert len(segmented) <= len(melody)


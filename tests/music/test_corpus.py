"""Unit tests for the synthetic song corpus."""

import numpy as np
import pytest

from repro.music.corpus import (
    EXAMPLE_PHRASE,
    SCALES,
    SongGenerator,
    generate_corpus,
    segment_corpus,
)


class TestSongGenerator:
    def test_deterministic_per_seed(self):
        a = SongGenerator(5).song("x")
        b = SongGenerator(5).song("x")
        assert a.melody == b.melody

    def test_different_seeds_differ(self):
        a = SongGenerator(1).song("x")
        b = SongGenerator(2).song("x")
        assert a.melody != b.melody

    def test_pitches_lie_in_scale(self):
        song = SongGenerator(3).song("x")
        degrees = set(SCALES[song.mode])
        for note in song.melody:
            assert (int(note.pitch) - song.key) % 12 in degrees

    def test_phrase_count(self):
        song = SongGenerator(0).song("x", n_phrases=7)
        assert len(song.phrases) == 7

    def test_motif_reuse_happens(self):
        """With 30 phrases some must be repeats of earlier motifs."""
        song = SongGenerator(4).song("x", n_phrases=30)
        sequences = [tuple((n.pitch, n.duration) for n in p) for p in song.phrases]
        assert len(set(sequences)) < len(sequences)

    def test_song_note_count_property(self):
        song = SongGenerator(0).song("x")
        assert song.note_count == len(song.melody)


class TestGenerateCorpus:
    def test_size_and_determinism(self):
        a = generate_corpus(5, seed=9)
        b = generate_corpus(5, seed=9)
        assert len(a) == 5
        assert all(x.melody == y.melody for x, y in zip(a, b))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_corpus(0)

    def test_names_unique(self):
        songs = generate_corpus(10)
        assert len({s.name for s in songs}) == 10


class TestSegmentCorpus:
    def test_paper_scale(self):
        """50 songs x 20 segments = the paper's 1000 melodies."""
        songs = generate_corpus(50, seed=1)
        melodies = segment_corpus(songs, per_song=20)
        assert len(melodies) == 1000

    def test_note_counts_in_range(self):
        songs = generate_corpus(10, seed=2)
        melodies = segment_corpus(songs, min_notes=15, max_notes=30)
        assert all(15 <= len(m) <= 30 for m in melodies)

    def test_names_carry_song(self):
        songs = generate_corpus(3, seed=0)
        melodies = segment_corpus(songs, per_song=5)
        assert melodies[0].name.startswith("song000#")

    def test_validation(self):
        songs = generate_corpus(2)
        with pytest.raises(ValueError):
            segment_corpus(songs, min_notes=10, max_notes=5)

    def test_per_song_below_one_rejected(self):
        songs = generate_corpus(2)
        with pytest.raises(ValueError, match="per_song"):
            segment_corpus(songs, per_song=0)

    def test_deterministic(self):
        songs = generate_corpus(5, seed=6)
        a = segment_corpus(songs, seed=3)
        b = segment_corpus(songs, seed=3)
        assert all(x == y for x, y in zip(a, b))


class TestExamplePhrase:
    def test_shape(self):
        assert len(EXAMPLE_PHRASE) == 12
        assert EXAMPLE_PHRASE.total_beats > 0

    def test_contour_dips_then_rises(self):
        pitches = EXAMPLE_PHRASE.pitches()
        assert pitches[1] < pitches[0]      # opening drop
        assert pitches.max() == pitches[9]  # later climb

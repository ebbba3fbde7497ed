"""Tests for corpus persistence."""

import numpy as np

from repro.music.corpus import generate_corpus, segment_corpus
from repro.persistence import load_corpus, save_corpus


class TestCorpusRoundtrip:
    def test_roundtrip(self, tmp_path):
        melodies = segment_corpus(generate_corpus(3, seed=4), per_song=5)
        directory = tmp_path / "corpus"
        save_corpus(melodies, directory)
        loaded = load_corpus(directory)
        assert len(loaded) == len(melodies)
        for original, back in zip(melodies, loaded):
            assert back.name == original.name
            assert np.allclose(back.pitches(), np.round(original.pitches()))
            assert np.allclose(back.durations(), original.durations(),
                               atol=0.01)

    def test_manifest_written(self, tmp_path):
        melodies = segment_corpus(generate_corpus(2, seed=4), per_song=3)
        save_corpus(melodies, tmp_path / "c")
        assert (tmp_path / "c" / "manifest.json").exists()
        assert (tmp_path / "c" / "melody_00000.mid").exists()

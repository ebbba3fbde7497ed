"""Tests for corpus persistence and dynamic index maintenance."""

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.datasets.generators import random_walks
from repro.index.gemini import WarpingIndex
from repro.music.corpus import generate_corpus, segment_corpus
from repro.persistence import load_corpus, save_corpus


@pytest.fixture
def walks():
    return list(random_walks(80, 96, seed=13))


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


class TestDynamicInsert:
    @pytest.mark.parametrize("kind", ["rstar", "grid", "linear"])
    def test_insert_then_query(self, walks, kind):
        index = WarpingIndex(
            walks, delta=0.1, normal_form=NormalForm(length=64),
            index_kind=kind,
        )
        rng = np.random.default_rng(77)
        newcomer = np.cumsum(rng.normal(size=96))
        index.insert(newcomer, "fresh")
        assert len(index) == len(walks) + 1
        results, _ = index.range_query(newcomer, 1e-9)
        assert results[0][0] == "fresh"

    def test_insert_duplicate_id_rejected(self, walks):
        index = WarpingIndex(walks, delta=0.1,
                             normal_form=NormalForm(length=64))
        with pytest.raises(ValueError, match="already present"):
            index.insert(walks[0], 0)

    def test_inserted_series_in_knn(self, walks):
        index = WarpingIndex(walks, delta=0.1,
                             normal_form=NormalForm(length=64))
        target = walks[3] + 0.01
        index.insert(target, "near3")
        results, _ = index.knn_query(walks[3], 2)
        assert {item for item, _ in results} == {3, "near3"}

    def test_ground_truth_sees_inserts(self, walks):
        index = WarpingIndex(walks[:10], delta=0.1,
                             normal_form=NormalForm(length=64))
        index.insert(walks[11], "x")
        truth = index.ground_truth_range(walks[11], 1e-9)
        assert truth and truth[0][0] == "x"

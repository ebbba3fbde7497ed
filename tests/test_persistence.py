"""Tests for index/corpus persistence and dynamic index maintenance."""

import numpy as np
import pytest

from repro.core.envelope_transforms import (
    KeoghPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
)
from repro.core.normal_form import NormalForm
from repro.core.transforms import DFTTransform
from repro.datasets.generators import random_walks
from repro.index.gemini import WarpingIndex
from repro.music.corpus import generate_corpus, segment_corpus
from repro.persistence import load_corpus, load_index, save_corpus, save_index


@pytest.fixture
def walks():
    return list(random_walks(80, 96, seed=13))


class TestIndexRoundtrip:
    def test_default_index(self, walks, tmp_path):
        index = WarpingIndex(walks, delta=0.1, normal_form=NormalForm(length=64))
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert len(loaded) == len(index)
        assert loaded.delta == index.delta
        query = random_walks(1, 96, seed=14)[0]
        a, _ = index.range_query(query, 5.0)
        b, _ = loaded.range_query(query, 5.0)
        assert a == b

    def test_keogh_transform_roundtrip(self, walks, tmp_path):
        index = WarpingIndex(
            walks, delta=0.08, env_transform=KeoghPAAEnvelopeTransform(64, 8),
            normal_form=NormalForm(length=64), index_kind="grid",
        )
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.env_transform.name == "Keogh_PAA"
        assert loaded.index_kind == "grid"

    def test_sign_split_matrix_roundtrip(self, walks, tmp_path):
        env_t = SignSplitEnvelopeTransform(DFTTransform(64, 6))
        index = WarpingIndex(
            walks, delta=0.1, env_transform=env_t,
            normal_form=NormalForm(length=64),
        )
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert np.allclose(
            loaded.env_transform.transform.matrix, env_t.transform.matrix
        )
        query = random_walks(1, 96, seed=15)[0]
        a, _ = index.knn_query(query, 5)
        b, _ = loaded.knn_query(query, 5)
        assert [i for i, _ in a] == [i for i, _ in b]

    def test_string_ids_roundtrip(self, walks, tmp_path):
        ids = [f"w{i}" for i in range(len(walks))]
        index = WarpingIndex(
            walks, delta=0.1, normal_form=NormalForm(length=64), ids=ids
        )
        path = tmp_path / "index.npz"
        save_index(index, path)
        assert load_index(path).ids == ids

    def test_serving_knobs_roundtrip(self, walks, tmp_path):
        """dtw_backend survives save/load (regression).

        A restarted service must behave identically to the one that
        saved the file: same refine kernel.
        """
        index = WarpingIndex(
            walks, delta=0.1, normal_form=NormalForm(length=64),
            dtw_backend="scalar",
        )
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.dtw_backend == "scalar"
        assert loaded.engine().dtw_backend == "scalar"

    def test_serving_knobs_default_when_absent(self, walks, tmp_path):
        """Files written before the serving knobs still load."""
        import json

        index = WarpingIndex(walks[:5], delta=0.1,
                             normal_form=NormalForm(length=64))
        path = tmp_path / "index.npz"
        save_index(index, path)
        data = dict(np.load(path))
        config = json.loads(bytes(data["config"]).decode())
        del config["dtw_backend"]
        data["config"] = np.frombuffer(
            json.dumps(config).encode(), dtype=np.uint8
        )
        np.savez(path, **data)
        loaded = load_index(path)
        assert loaded.dtw_backend == index.dtw_backend

    def test_legacy_workers_key_is_ignored(self, walks, tmp_path):
        """Files written while the index had a ``workers`` knob carry
        it in their config; they load, and answer exactly as the same
        file without the key does."""
        import json

        index = WarpingIndex(walks, delta=0.1,
                             normal_form=NormalForm(length=64))
        path = tmp_path / "index.npz"
        save_index(index, path)
        plain = load_index(path)
        data = dict(np.load(path))
        config = json.loads(bytes(data["config"]).decode())
        assert "workers" not in config
        config["workers"] = 4
        data["config"] = np.frombuffer(
            json.dumps(config).encode(), dtype=np.uint8
        )
        np.savez(path, **data)
        loaded = load_index(path)
        query = random_walks(1, 96, seed=16)[0]
        assert (loaded.cascade_knn_query(query, 5)[0]
                == plain.cascade_knn_query(query, 5)[0])

    def test_bad_version_rejected(self, walks, tmp_path):
        import json

        index = WarpingIndex(walks[:5], delta=0.1,
                             normal_form=NormalForm(length=64))
        path = tmp_path / "index.npz"
        save_index(index, path)
        data = dict(np.load(path))
        config = json.loads(bytes(data["config"]).decode())
        config["version"] = 999
        data["config"] = np.frombuffer(
            json.dumps(config).encode(), dtype=np.uint8
        )
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_index(path)


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

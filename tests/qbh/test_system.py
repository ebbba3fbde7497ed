"""Unit and integration tests for the query-by-humming system."""

import numpy as np
import pytest

from repro.engine import DEFAULT_STAGES, CascadeStats
from repro.hum.singer import SingerProfile, hum_melody
from repro.qbh.system import QueryByHummingSystem


@pytest.fixture(scope="module")
def system(small_corpus_module):
    return QueryByHummingSystem(small_corpus_module, delta=0.1, normal_length=128)


@pytest.fixture(scope="module")
def small_corpus_module():
    from repro.music import generate_corpus, segment_corpus

    songs = generate_corpus(10, seed=202)
    return segment_corpus(songs, per_song=20, seed=202)


class TestConstruction:
    def test_size(self, system, small_corpus_module):
        assert len(system) == len(small_corpus_module)

    def test_names(self, system):
        assert all(name for name in system.names)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            QueryByHummingSystem([])

    def test_delta_exposed(self, system):
        assert system.delta == 0.1


class TestQuery:
    def test_exact_hum_hits_target(self, system, small_corpus_module):
        target = 17
        hum = small_corpus_module[target].to_time_series(8).astype(float)
        results, stats = system.query(hum, k=5)
        assert results[0][1] == pytest.approx(0.0, abs=1e-9)
        # The target (or an identical repeated melody) is rank 1.
        assert system.rank_of(hum, target) == 1

    def test_better_singer_rank1(self, system, small_corpus_module, rng):
        hits = 0
        for target in (3, 57, 111, 160):
            hum = hum_melody(small_corpus_module[target], SingerProfile.better(), rng)
            if system.rank_of(hum, target) == 1:
                hits += 1
        assert hits >= 3

    def test_transposed_and_slowed_hum_still_found(self, system, small_corpus_module):
        target = 42
        melody = small_corpus_module[target].transpose(-7).scale_tempo(1.5)
        hum = melody.to_time_series(8).astype(float)
        assert system.rank_of(hum, target) == 1

    def test_query_returns_names_and_stats(self, system, small_corpus_module, rng):
        hum = hum_melody(small_corpus_module[0], SingerProfile.better(), rng)
        results, stats = system.query(hum, k=10)
        assert len(results) == 10
        assert all(isinstance(name, str) for name, _ in results)
        # The engine's record: every melody entered the cascade, the
        # stages pruned some by bound alone, and at least the k answers
        # were refined with exact DTW.
        assert isinstance(stats, CascadeStats)
        assert stats.corpus_size == len(system)
        assert [stage.name for stage in stats.stages] == list(DEFAULT_STAGES)
        assert stats.pruned_total > 0
        assert 10 <= stats.dtw_computations < len(system)
        assert stats.results == 10
        _, ranged = system.query_range(hum, results[-1][1])
        assert isinstance(ranged, CascadeStats)
        assert ranged.results >= 10

    def test_system_answers_as_the_tree_route(self, system,
                                              small_corpus_module):
        """The front door (the engine) and the paper's R*-tree route
        give the same ids in the same order, ties between duplicate
        melodies included, and the same distances."""
        groups = system._duplicate_groups()
        assert len(set(groups.values())) < len(system)  # has duplicates
        rng = np.random.default_rng(58)
        row_of = {name: row for row, name in enumerate(system.names)}
        for target in range(0, len(system), len(system) // 24):
            hum = hum_melody(small_corpus_module[target],
                             SingerProfile.poor(), rng)
            named, _ = system.query(hum, k=10)
            tree, _ = system.index.knn_query(hum, 10)
            assert [row_of[name] for name, _ in named] == [
                row for row, _ in tree]
            np.testing.assert_allclose([d for _, d in named],
                                       [d for _, d in tree],
                                       rtol=0, atol=1e-9)
            # A radius at the 6th distance, ties at the boundary in.
            epsilon = float(np.nextafter(tree[5][1], np.inf))
            named, _ = system.query_range(hum, epsilon)
            tree, _ = system.index.range_query(hum, epsilon)
            assert [row_of[name] for name, _ in named] == [
                row for row, _ in tree]
            np.testing.assert_allclose([d for _, d in named],
                                       [d for _, d in tree],
                                       rtol=0, atol=1e-9)

    def test_collapse_duplicates_yields_distinct_tunes(
        self, system, small_corpus_module, rng
    ):
        hum = hum_melody(small_corpus_module[0], SingerProfile.better(), rng)
        plain, _ = system.query(hum, k=10)
        collapsed, stats = system.query(hum, k=10, collapse_duplicates=True)
        assert len(collapsed) == 10
        # The stats describe the answer returned, not the over-fetch.
        assert stats.results == len(collapsed)
        # No two collapsed results may be note-for-note identical melodies.
        notes = {m.name: tuple((n.pitch, n.duration) for n in m)
                 for m in small_corpus_module}
        seen = [notes[name] for name, _ in collapsed]
        assert len(seen) == len(set(seen))
        # Collapsing never worsens the best distance.
        assert collapsed[0][1] == pytest.approx(plain[0][1])

    def test_range_query(self, system, small_corpus_module):
        hum = small_corpus_module[5].to_time_series(8).astype(float)
        results, _ = system.query_range(hum, 1e-9)
        assert small_corpus_module[5].name in [name for name, _ in results]

    def test_rank_of_validates(self, system):
        with pytest.raises(ValueError, match="out of range"):
            system.rank_of(np.zeros(50), 10**6)

    def test_distances_to_all_shape(self, system, rng):
        dists = system.distances_to_all(rng.normal(60, 3, size=200))
        assert dists.shape == (len(system),)
        assert np.all(dists >= 0)


class TestAudioQuery:
    def test_query_from_synthesized_audio(self, system, small_corpus_module):
        from repro.hum.synthesis import synthesize_melody

        target = 88
        wave = synthesize_melody(small_corpus_module[target], tempo_bpm=100)
        results, _ = system.query_audio(wave, k=10)
        names = [name for name, _ in results]
        assert small_corpus_module[target].name in names

    def test_silent_audio_raises(self, system):
        with pytest.raises(ValueError, match="voiced"):
            system.query_audio(np.zeros(8000))

"""Metamorphic tests: whole-stack invariances under input transformations.

Each test states a relation that must hold between two runs of the
system on related inputs — the invariances the paper designs for
(transposition, tempo, database composition) checked end to end rather
than per module.
"""

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.datasets.generators import random_walks
from repro.hum.singer import SingerProfile, hum_melody
from repro.index.gemini import WarpingIndex
from repro.music.corpus import generate_corpus, segment_corpus
from repro.qbh.system import QueryByHummingSystem


@pytest.fixture(scope="module")
def melodies():
    return segment_corpus(generate_corpus(8, seed=90), per_song=12)


@pytest.fixture(scope="module")
def system(melodies):
    return QueryByHummingSystem(melodies, delta=0.1)


@pytest.fixture(scope="module")
def hum(melodies):
    rng = np.random.default_rng(3)
    return hum_melody(melodies[40], SingerProfile.better(), rng)


class TestQueryInvariances:
    def test_transposing_the_query_changes_nothing(self, system, hum):
        base, _ = system.query(hum, k=10)
        shifted, _ = system.query(hum + 11.0, k=10)
        assert [n for n, _ in base] == [n for n, _ in shifted]
        assert np.allclose([d for _, d in base], [d for _, d in shifted])

    def test_uniform_tempo_change_changes_nothing(self, system, hum):
        base, _ = system.query(hum, k=10)
        slowed = np.repeat(hum, 2)
        slow_results, _ = system.query(slowed, k=10)
        assert [n for n, _ in base] == [n for n, _ in slow_results]

    def test_transposing_the_whole_database_changes_nothing(self, melodies, hum):
        original = QueryByHummingSystem(melodies, delta=0.1)
        transposed = QueryByHummingSystem(
            [m.transpose(4) for m in melodies], delta=0.1
        )
        a, _ = original.query(hum, k=10)
        b, _ = transposed.query(hum, k=10)
        assert np.allclose([d for _, d in a], [d for _, d in b])

    def test_tempo_scaling_the_database_changes_nothing(self, melodies, hum):
        original = QueryByHummingSystem(melodies, delta=0.1)
        double_time = QueryByHummingSystem(
            [m.scale_tempo(2.0) for m in melodies], delta=0.1
        )
        a, _ = original.query(hum, k=10)
        b, _ = double_time.query(hum, k=10)
        assert [n for n, _ in a] == [n for n, _ in b]


class TestDatabaseComposition:
    @pytest.fixture(scope="class")
    def walks(self):
        return list(random_walks(120, 96, seed=91))

    @pytest.fixture(scope="class")
    def query(self):
        return random_walks(1, 96, seed=92)[0]

    def test_adding_series_never_worsens_knn(self, walks, query):
        """The k-th best distance is non-increasing in database size."""
        small = WarpingIndex(walks[:60], delta=0.1,
                             normal_form=NormalForm(length=64))
        large = WarpingIndex(walks, delta=0.1,
                             normal_form=NormalForm(length=64))
        k_small = small.knn_query(query, 5)[0][-1][1]
        k_large = large.knn_query(query, 5)[0][-1][1]
        assert k_large <= k_small + 1e-9

    def test_range_answer_is_monotone_in_database(self, walks, query):
        small = WarpingIndex(walks[:60], delta=0.1,
                             normal_form=NormalForm(length=64))
        large = WarpingIndex(walks, delta=0.1,
                             normal_form=NormalForm(length=64))
        small_ids = {i for i, _ in small.range_query(query, 6.0)[0]}
        large_ids = {i for i, _ in large.range_query(query, 6.0)[0]}
        assert small_ids <= large_ids

    def test_removing_a_non_answer_changes_nothing(self, walks, query):
        index = WarpingIndex(walks, delta=0.1,
                             normal_form=NormalForm(length=64))
        answers, _ = index.range_query(query, 6.0)
        answer_ids = {i for i, _ in answers}
        victim = next(i for i in index.ids if i not in answer_ids)
        index2 = WarpingIndex(
            [w for i, w in enumerate(walks) if i != victim], delta=0.1,
            ids=[i for i in index.ids if i != victim],
            normal_form=NormalForm(length=64))
        again, _ = index2.range_query(query, 6.0)
        assert answers == again

    def test_duplicate_series_share_distance(self, walks, query):
        index = WarpingIndex(list(walks) + [walks[7]], delta=0.1,
                             ids=list(range(len(walks))) + ["clone-of-7"],
                             normal_form=NormalForm(length=64))
        dists = dict(index.ground_truth_range(query, np.inf))
        assert dists[7] == pytest.approx(dists["clone-of-7"])


class TestEngineInvariances:
    """The cascade engine's stage plans all return the system's answer."""

    def _assert_valid_knn(self, system, hum, results, k):
        """Exact-k-NN validity, robust to ties between duplicate
        melodies."""
        all_dists = system.distances_to_all(hum)
        truth = np.sort(all_dists)[:k]
        np.testing.assert_allclose(
            [d for _, d in results], truth, atol=1e-6
        )
        for row, dist in results:
            assert dist == pytest.approx(all_dists[row], abs=1e-6)

    def test_every_stage_config_returns_the_same_answer(self, system, hum):
        from repro.engine import STAGE_ORDER

        base, _ = system.index.cascade_knn_query(hum, 10, stages=())
        for count in range(1, len(STAGE_ORDER) + 1):
            got, _ = system.index.cascade_knn_query(
                hum, 10, stages=STAGE_ORDER[:count])
            self._assert_valid_knn(system, hum, got, 10)
            assert np.allclose([d for _, d in base],
                               [d for _, d in got])

    def test_cascade_range_query_is_shift_invariant(self, melodies, hum):
        index = WarpingIndex(
            [m.to_time_series(8) for m in melodies], delta=0.1,
            normal_form=NormalForm(length=64, shift=True),
        )
        a, _ = index.cascade_range_query(hum, 6.0)
        b, _ = index.cascade_range_query(hum + 7.0, 6.0)
        assert [i for i, _ in a] == [i for i, _ in b]
        assert np.allclose([d for _, d in a], [d for _, d in b])


class TestDeltaMonotonicity:
    def test_wider_delta_never_shrinks_range_answers(self):
        walks = list(random_walks(80, 96, seed=94))
        query = random_walks(1, 96, seed=95)[0]
        narrow = WarpingIndex(walks, delta=0.02,
                              normal_form=NormalForm(length=64))
        wide = WarpingIndex(walks, delta=0.2,
                            normal_form=NormalForm(length=64))
        narrow_ids = {i for i, _ in narrow.range_query(query, 5.0)[0]}
        wide_ids = {i for i, _ in wide.range_query(query, 5.0)[0]}
        assert narrow_ids <= wide_ids

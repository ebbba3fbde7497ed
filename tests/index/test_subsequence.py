"""Unit and integration tests for subsequence matching."""

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.dtw.distance import ldtw_distance_batch
from repro.index import subsequence
from repro.index.subsequence import SubsequenceIndex, SubsequenceMatch


@pytest.fixture(scope="module")
def songs():
    """Ten long 'songs' with a known planted motif in song 3."""
    rng = np.random.default_rng(5)
    seqs = [np.cumsum(rng.normal(size=400)) for _ in range(10)]
    return seqs


@pytest.fixture(scope="module")
def index(songs):
    return SubsequenceIndex(
        songs, window_lengths=(64,), stride=8, delta=0.1,
        normal_form=NormalForm(length=64),
    )


class TestConstruction:
    def test_window_count(self, songs, index):
        per_seq = (400 - 64) // 8 + 1
        assert index.window_count == per_seq * len(songs)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            SubsequenceIndex([])

    def test_rejects_bad_stride(self, songs):
        with pytest.raises(ValueError, match="stride"):
            SubsequenceIndex(songs, stride=0)

    def test_rejects_tiny_windows(self, songs):
        with pytest.raises(ValueError, match="window lengths"):
            SubsequenceIndex(songs, window_lengths=(1,))

    def test_all_sequences_too_short(self):
        with pytest.raises(ValueError, match="no windows"):
            SubsequenceIndex([np.zeros(10)], window_lengths=(64,))

    def test_short_sequences_skipped_not_fatal(self):
        rng = np.random.default_rng(0)
        seqs = [np.zeros(10), np.cumsum(rng.normal(size=100))]
        idx = SubsequenceIndex(seqs, window_lengths=(64,), stride=16,
                               normal_form=NormalForm(length=64))
        assert idx.window_count > 0

    def test_multi_scale_windows(self, songs):
        idx = SubsequenceIndex(
            songs[:3], window_lengths=(64, 128), stride=32,
            normal_form=NormalForm(length=64),
        )
        lengths = {length for _, _, length in idx._windows}
        assert lengths == {64, 128}

    def test_custom_ids(self, songs):
        idx = SubsequenceIndex(
            songs[:3], ids=["a", "b", "c"], window_lengths=(64,),
            stride=32, normal_form=NormalForm(length=64),
        )
        matches, _ = idx.range_query(songs[1][64:128], 1e-6)
        assert matches and matches[0].sequence_id == "b"


class TestRangeQuery:
    def test_planted_excerpt_found(self, songs, index):
        """A window cut straight from a song matches at distance ~0."""
        excerpt = songs[3][96:160]
        matches, stats = index.range_query(excerpt, 1e-9)
        assert matches
        top = matches[0]
        assert top.sequence_id == 3
        assert top.start == 96
        assert top.distance == pytest.approx(0.0, abs=1e-9)

    def test_transposed_excerpt_found(self, songs, index):
        matches, _ = index.range_query(songs[5][40:104] + 12.0, 1e-6)
        assert matches and matches[0].sequence_id == 5

    def test_offgrid_excerpt_found_with_slack(self, songs, index):
        """An excerpt not aligned to the stride matches a neighbouring
        window — within one stride of the true offset, given a radius
        that accommodates the few-sample misalignment."""
        excerpt = songs[2][101:165]
        matches, _ = index.range_query(excerpt, 12.0)
        assert any(m.sequence_id == 2 and abs(m.start - 101) <= 8
                   for m in matches)
        # And the nearest match overall is that neighbouring window.
        top, _ = index.knn_query(excerpt, 1)
        assert top[0].sequence_id == 2
        assert abs(top[0].start - 101) <= 8

    def test_matches_ground_truth(self, songs, index, monkeypatch):
        cutoffs = []

        def spy(*args, **kwargs):
            cutoffs.append(kwargs.get("upper_bound"))
            return ldtw_distance_batch(*args, **kwargs)

        monkeypatch.setattr(subsequence, "ldtw_distance_batch", spy)
        query = songs[0][10:74] + np.linspace(0, 0.5, 64)
        for eps in (1.0, 4.0):
            got, stats = index.range_query(query, eps)
            truth = index.ground_truth_range(query, eps)
            assert [(m.sequence_id, m.start) for m in got] == [
                (m.sequence_id, m.start) for m in truth
            ]
            assert stats.results == len(truth)
        # Only epsilon=4.0 has candidates; their refinement
        # early-abandons at epsilon instead of running every DP out.
        assert cutoffs == [4.0]

    def test_best_per_sequence_dedup(self, songs, index):
        query = songs[7][200:264]
        all_matches, _ = index.range_query(query, 8.0, best_per_sequence=False)
        deduped, _ = index.range_query(query, 8.0, best_per_sequence=True)
        ids = [m.sequence_id for m in deduped]
        assert len(ids) == len(set(ids))
        assert len(deduped) <= len(all_matches)

    def test_sorted_by_distance(self, songs, index):
        matches, _ = index.range_query(songs[1][0:64], 10.0,
                                       best_per_sequence=False)
        dists = [m.distance for m in matches]
        assert dists == sorted(dists)

    def test_rejects_negative_epsilon(self, index):
        with pytest.raises(ValueError, match="epsilon"):
            index.range_query(np.zeros(64), -1.0)


class TestKnnQuery:
    def test_k_sequences_returned(self, songs, index):
        matches, stats = index.knn_query(songs[4][120:184], 3)
        assert len(matches) == 3
        assert matches[0].sequence_id == 4
        assert matches[0].distance == pytest.approx(0.0, abs=1e-9)
        ids = [m.sequence_id for m in matches]
        assert len(set(ids)) == 3

    def test_knn_matches_ground_truth_top1(self, songs, index):
        query = songs[6][64:128] - 3.0
        matches, _ = index.knn_query(query, 1)
        truth = index.ground_truth_range(query, np.inf)
        assert matches[0].sequence_id == truth[0].sequence_id
        assert matches[0].distance == pytest.approx(truth[0].distance)

    def test_knn_without_dedup_counts_windows(self, songs, index):
        matches, _ = index.knn_query(songs[4][120:184], 5,
                                     best_per_sequence=False)
        assert len(matches) == 5
        dists = [m.distance for m in matches]
        assert dists == sorted(dists)

    def test_knn_prunes(self, songs, index):
        _, stats = index.knn_query(songs[0][0:64], 2)
        assert stats.dtw_computations < index.window_count

    def test_rejects_bad_k(self, index):
        with pytest.raises(ValueError, match="k must"):
            index.knn_query(np.zeros(64), 0)


class TestMatchDataclass:
    def test_fields(self):
        match = SubsequenceMatch("song", 10, 64, 1.5)
        assert match.sequence_id == "song"
        assert match.start == 10
        assert match.length == 64
        assert match.distance == 1.5

"""Cross-module integration tests: the paper's pipelines end to end."""

import numpy as np
import pytest

from repro import (
    ContourIndex,
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
    QueryByHummingSystem,
    SingerProfile,
    WarpingIndex,
    contour_string,
    generate_corpus,
    hum_melody,
    k_envelope,
    lb_envelope_transform,
    ldtw_distance,
    random_walks,
    segment_corpus,
    synthesize_melody,
    track_pitch,
)
from repro.core import NormalForm
from repro.hum.segmentation import segment_notes
from repro.music.midi import MidiFile, melody_to_midi_bytes


@pytest.fixture(scope="module")
def corpus():
    return segment_corpus(generate_corpus(10, seed=55), per_song=15, seed=55)


class TestFullQbhPipeline:
    def test_audio_to_ranked_results(self, corpus):
        """Microphone-to-answer: synthesize hum audio, track pitch,
        query the index, find the intended melody."""
        system = QueryByHummingSystem(corpus, delta=0.1)
        target = 31
        wave = synthesize_melody(corpus[target], tempo_bpm=90)
        track = track_pitch(wave)
        assert track.voiced_fraction > 0.5
        rank = system.rank_of(track.pitch_series(), target)
        assert rank <= 3

    def test_sung_variations_absorbed(self, corpus):
        """Shift + tempo + local warp: the invariances the index promises."""
        system = QueryByHummingSystem(corpus, delta=0.1)
        rng = np.random.default_rng(8)
        target = 77
        hum = hum_melody(corpus[target], SingerProfile.better(), rng)
        assert system.rank_of(hum, target) <= 3

    def test_midi_roundtrip_database(self, corpus):
        """Build the database through the MIDI layer (Figure 9's source)."""
        roundtripped = [
            MidiFile.from_bytes(melody_to_midi_bytes(m)).to_melody(name=m.name)
            for m in corpus[:50]
        ]
        system = QueryByHummingSystem(roundtripped, delta=0.1)
        hum = roundtripped[7].to_time_series(8).astype(float)
        assert system.rank_of(hum, 7) == 1


class TestNoisyAudioPipeline:
    def test_query_survives_room_noise(self, corpus):
        """The full audio path at 12 dB SNR still finds the melody."""
        system = QueryByHummingSystem(corpus, delta=0.1)
        rng = np.random.default_rng(14)
        # Target must lie within the tracker's 80-700 Hz band (melody
        # 31 does); out-of-band scores alias regardless of noise.
        target = 31
        wave = synthesize_melody(corpus[target], tempo_bpm=100)
        noise = rng.normal(0.0, 1.0, size=wave.size)
        # White noise scaled so that P_signal / P_noise is 12 dB.
        noisy = wave + noise * np.sqrt(
            np.mean(wave**2) / (np.mean(noise**2) * 10 ** (12.0 / 10.0)))
        track = track_pitch(noisy)
        assert track.pitch_series().size > 50
        assert system.rank_of(track.pitch_series(), target) <= 5


class TestContourVsTimeSeries:
    def test_contour_pipeline_runs(self, corpus):
        """Hum audio -> pitch -> segment -> contour -> rank."""
        contour_index = ContourIndex(corpus[:60])
        target = 13
        wave = synthesize_melody(corpus[target], tempo_bpm=100)
        segmented = segment_notes(track_pitch(wave).pitches)
        rank = contour_index.rank_of(contour_string(segmented), target)
        assert 1 <= rank <= 60

    def test_time_series_beats_contour_with_noisy_segmentation(self, corpus):
        """Table 2's qualitative claim on a small scale: with singer
        noise, the time-series rank is at least as good on average."""
        subset = corpus[:80]
        system = QueryByHummingSystem(subset, delta=0.1)
        contour_index = ContourIndex(subset)
        rng = np.random.default_rng(21)
        ts_ranks, ct_ranks = [], []
        for target in (5, 23, 41, 66):
            hum = hum_melody(subset[target], SingerProfile.better(), rng)
            ts_ranks.append(system.rank_of(hum, target))
            segmented = segment_notes(hum)
            ct_ranks.append(
                contour_index.rank_of(contour_string(segmented), target)
            )
        assert np.mean(ts_ranks) <= np.mean(ct_ranks)


class TestIndexGuarantees:
    def test_no_false_negatives_across_transforms(self):
        """Theorem 1, exercised through the whole index stack."""
        walks = list(random_walks(120, 96, seed=4))
        query = random_walks(1, 96, seed=99)[0]
        for env_t in (None, KeoghPAAEnvelopeTransform(64, 8)):
            index = WarpingIndex(
                walks, delta=0.1, env_transform=env_t,
                normal_form=NormalForm(length=64),
            )
            results, _ = index.range_query(query, 6.0)
            truth = index.ground_truth_range(query, 6.0)
            assert [i for i, _ in results] == [i for i, _ in truth]

    def test_filter_lower_bounds_exact_distance(self):
        """The feature-space distance the index prunes with never
        exceeds the DTW distance the refine step computes."""
        walks = random_walks(30, 64, seed=5)
        nf = NormalForm(length=64)
        env_t = NewPAAEnvelopeTransform(64, 8)
        k = 3
        query = nf.apply(random_walks(1, 64, seed=6)[0])
        q_env = k_envelope(query, k)
        for row in range(walks.shape[0]):
            data = nf.apply(walks[row])
            lb = lb_envelope_transform(env_t, data, envelope=q_env)
            exact = ldtw_distance(data, query, k)
            assert lb <= exact + 1e-9

    def test_candidates_shrink_with_tighter_transform(self):
        walks = list(random_walks(400, 96, seed=7))
        queries = random_walks(5, 96, seed=8)
        new_total = keogh_total = 0
        kwargs = dict(delta=0.12, normal_form=NormalForm(length=64))
        idx_new = WarpingIndex(walks, **kwargs)
        idx_keogh = WarpingIndex(
            walks, env_transform=KeoghPAAEnvelopeTransform(64, 8), **kwargs
        )
        for q in queries:
            _, s_new = idx_new.range_query(q, 5.0)
            _, s_keogh = idx_keogh.range_query(q, 5.0)
            new_total += s_new.candidates
            keogh_total += s_keogh.candidates
        assert new_total <= keogh_total

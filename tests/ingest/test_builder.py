"""Streaming builder: budget accounting, parity, incremental builds."""

import numpy as np
import pytest

from repro.core.envelope import k_envelope
from repro.core.envelope_transforms import (
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
)
from repro.core.normal_form import NormalForm
from repro.core.transforms import DFTTransform
from repro.dtw.distance import ldtw_distance_batch
from repro.index.gemini import WarpingIndex
from repro.index.subsequence import SubsequenceIndex
from repro.ingest import StreamingIndexBuilder, batch_envelope
from repro.store import CorpusStore
from repro.store.corpus import StoreError


def _walks(count, length, seed=5):
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.normal(size=length)) for _ in range(count)]


def test_batch_envelope_matches_per_row_k_envelope(rng):
    chunk = rng.normal(size=(7, 40)).astype(np.float32)
    for k in (0, 1, 3, 8, 39, 40, 100):
        lower, upper = batch_envelope(chunk, k)
        assert lower.dtype == upper.dtype == np.float32
        for row in range(chunk.shape[0]):
            env = k_envelope(chunk[row], k)
            np.testing.assert_array_equal(lower[row], env.lower)
            np.testing.assert_array_equal(upper[row], env.upper)


def test_budget_does_not_change_the_output(tmp_path):
    series = _walks(40, 120)
    ids = [f"m{i}" for i in range(40)]
    stores = {}
    for label, budget in (("tight", 0.05), ("roomy", 64.0)):
        builder = StreamingIndexBuilder(
            str(tmp_path / label), normal_form=NormalForm(length=64),
            memory_budget_mb=budget,
        )
        stores[label], report = builder.build(series, ids)
        assert report.peak_buffer_bytes <= report.budget_bytes
        if label == "tight":
            assert report.flushes > 1  # the budget actually bit
    for column in ("normalized", "features", "env_lower", "env_upper",
                   "meta"):
        np.testing.assert_array_equal(
            np.asarray(stores["tight"].column(column)),
            np.asarray(stores["roomy"].column(column)),
        )
    assert stores["tight"].ids == stores["roomy"].ids


def test_melody_store_matches_in_memory_index(tmp_path):
    series = _walks(25, 100)
    ids = [f"m{i}" for i in range(25)]
    builder = StreamingIndexBuilder(str(tmp_path),
                                    normal_form=NormalForm(length=64))
    store, report = builder.build(series, ids)
    store.verify()
    reference = WarpingIndex(series, delta=0.1, ids=ids,
                             normal_form=NormalForm(length=64))
    # stored rows are the float32 quantization of the reference rows
    np.testing.assert_array_equal(
        np.asarray(store.normalized),
        reference._data.astype(np.float32),
    )
    # stored margin covers the float32 quantization of every feature
    feats64 = reference.env_transform.transform.transform_batch(
        np.asarray(store.normalized, dtype=np.float64)
    )
    assert np.abs(feats64 - store.features).max() <= store.feature_margin


def test_subsequence_windowing_matches_index(tmp_path):
    series = _walks(6, 150, seed=9)
    builder = StreamingIndexBuilder(
        str(tmp_path), kind="subsequence",
        normal_form=NormalForm(length=32), window_lengths=(48, 96),
        stride=16,
    )
    store, report = builder.build(series)
    reference = SubsequenceIndex(series, window_lengths=(48, 96),
                                 stride=16,
                                 normal_form=NormalForm(length=32))
    assert report.rows == reference.window_count
    meta = [tuple(int(v) for v in row) for row in np.asarray(store.meta)]
    assert meta == reference._windows
    np.testing.assert_array_equal(
        np.asarray(store.normalized),
        reference._normalized.astype(np.float32),
    )


def test_store_backed_subsequence_range_has_no_false_negatives(tmp_path):
    """Every window truly within epsilon of a query, by exact banded DTW
    over all stored windows, is in the float32 store-backed answer."""
    builder = StreamingIndexBuilder(
        str(tmp_path), kind="subsequence",
        normal_form=NormalForm(length=32), window_lengths=(48,),
        stride=8, memory_budget_mb=0.05,
    )
    store, report = builder.build(_walks(8, 160, seed=13))
    assert report.peak_buffer_bytes <= report.budget_bytes
    store.verify()
    index = SubsequenceIndex.from_store(store)
    rng = np.random.default_rng(91)
    for _ in range(3):
        row = int(rng.integers(report.rows))
        query = (np.asarray(index._normalized[row], dtype=np.float64)
                 + 0.1 * rng.normal(size=32))
        q = index.normal_form.apply(query)
        exact = ldtw_distance_batch(q, index._normalized, index.band)
        epsilon = float(np.quantile(exact, 0.3))
        matches, stats = index.range_query(query, epsilon,
                                           best_per_sequence=False)
        got = {(m.sequence_id, m.start) for m in matches}
        for window in np.flatnonzero(exact <= epsilon):
            seq_row, start, _ = index._windows[int(window)]
            assert (index.ids[seq_row], start) in got
        assert stats.candidates >= len(matches)


def test_incremental_build_inherits_and_appends(tmp_path):
    root = str(tmp_path)
    builder = StreamingIndexBuilder(root, normal_form=NormalForm(length=64))
    base, _ = builder.build(_walks(10, 100), [f"a{i}" for i in range(10)])
    incremental = StreamingIndexBuilder.for_store(base)
    new = _walks(4, 100, seed=77)
    store, report = incremental.build(new, [f"b{i}" for i in range(4)],
                                      base=base)
    assert store.generation == base.generation + 1
    assert store.rows == 14
    assert store.ids[:10] == base.ids
    np.testing.assert_array_equal(
        np.asarray(store.normalized)[:10], np.asarray(base.normalized)
    )
    store.verify()
    assert CorpusStore.open(root).generation == store.generation


def test_id_count_mismatch_raises(tmp_path):
    builder = StreamingIndexBuilder(str(tmp_path),
                                    normal_form=NormalForm(length=64))
    series = _walks(3, 100)
    with pytest.raises(ValueError, match="fewer ids"):
        builder.build(series, ["a", "b"])
    with pytest.raises(ValueError, match="more ids"):
        builder.build(series, ["a", "b", "c", "d"])


def test_all_sequences_too_short_raises(tmp_path):
    builder = StreamingIndexBuilder(
        str(tmp_path), kind="subsequence",
        normal_form=NormalForm(length=32), window_lengths=(64,),
    )
    with pytest.raises(StoreError, match="no rows"):
        builder.build(_walks(3, 20))


def test_builder_config_round_trips_through_for_store(tmp_path):
    builder = StreamingIndexBuilder(
        str(tmp_path), delta=0.2, normal_form=NormalForm(length=48),
        n_features=6,
    )
    store, _ = builder.build(_walks(5, 90))
    again = StreamingIndexBuilder.for_store(store)
    assert again.delta == 0.2
    assert again.normal_length == 48
    assert again.n_features == 6
    assert again.env_transform.output_dim == 6


@pytest.mark.parametrize("make_transform, metric", [
    (lambda: NewPAAEnvelopeTransform(64, 8), "euclidean"),
    (lambda: NewPAAEnvelopeTransform(64, 8, metric="manhattan"), "manhattan"),
    (lambda: KeoghPAAEnvelopeTransform(64, 8), "euclidean"),
    (lambda: KeoghPAAEnvelopeTransform(64, 8, metric="manhattan"),
     "manhattan"),
    (lambda: SignSplitEnvelopeTransform(DFTTransform(64, 6)), "euclidean"),
], ids=["new_paa", "new_paa-manhattan", "keogh_paa", "keogh_paa-manhattan",
        "dft6"])
def test_store_round_trip_answers_like_the_in_memory_index(
        tmp_path, make_transform, metric):
    """A store built by the streaming builder and opened with
    ``from_store`` keeps the index's configuration and answers as the
    float64 in-memory index does, on the tree and the cascade routes."""
    series = _walks(60, 96, seed=21)
    ids = [f"w{i}" for i in range(60)]
    config = dict(delta=0.08, normal_form=NormalForm(length=64),
                  env_transform=make_transform(), metric=metric, capacity=8)
    memory = WarpingIndex(series, ids=ids, **config)
    StreamingIndexBuilder(str(tmp_path), **config).build(series, ids)
    stored = WarpingIndex.from_store(CorpusStore.open(str(tmp_path)))

    assert stored.metric == metric
    assert stored.delta == memory.delta
    assert stored._capacity == 8
    assert stored.env_transform.name == memory.env_transform.name
    np.testing.assert_array_equal(stored.env_transform.transform.matrix,
                                  memory.env_transform.transform.matrix)
    assert stored.ids == ids

    for seed in (22, 23, 24):
        query = _walks(1, 96, seed=seed)[0]
        for k in (1, 5):
            want, _ = memory.knn_query(query, k)
            for got, _ in (stored.knn_query(query, k),
                           stored.cascade_knn_query(query, k)):
                assert [i for i, _ in got] == [i for i, _ in want]
                np.testing.assert_allclose([d for _, d in got],
                                           [d for _, d in want], rtol=1e-6)
        # Midway between the 5th and 6th distances, so float32 rows
        # cannot move a boundary row across epsilon.
        nearest, _ = memory.knn_query(query, 6)
        epsilon = (nearest[4][1] + nearest[5][1]) / 2
        want, _ = memory.range_query(query, epsilon)
        assert len(want) == 5
        for got, _ in (stored.range_query(query, epsilon),
                       stored.cascade_range_query(query, epsilon)):
            assert [i for i, _ in got] == [i for i, _ in want]
            np.testing.assert_allclose([d for _, d in got],
                                       [d for _, d in want], rtol=1e-6)

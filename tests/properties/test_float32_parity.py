"""Float32 storage parity: the cascade over quantised data stays exact.

The columnar store keeps normal forms as float32 and GEMINI features
as float32 with a recorded quantisation margin.  Four properties keep
that sound:

* refinement promotes the float32 rows exactly to float64, and the
  ``lb_keogh`` stage's float32 bound is deflated below the float64 one
  (``tests/properties/test_lower_bound_invariants.py``) — so a cascade
  over the stored corpus returns answers **bitwise identical** to one
  over a float64 upcast copy, though its bounds differ in the last
  digits;
* the engine reads the store's envelope columns and their New_PAA
  column, and an engine that computes its own instead returns the same
  bounds, counters and answers;
* tree searches over the stored float32 features inflate epsilon (and
  deflate k-NN bounds) by the manifest margin — range answers over the
  store can therefore never lose a true float32-corpus hit (zero false
  negatives vs the float64 reference corpus, up to the quantisation of
  the data itself);
* distances between the float64 index and the store-backed index agree
  to float32 resolution on the standard ablation corpus.

The engine's properties hold on the native stage bodies and on the
NumPy fallback alike.
"""

import numpy as np
import pytest

from repro.core.envelope import k_envelope
from repro.core.normal_form import NormalForm
from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.engine.stages import lb_keogh_two_sided, query_sides
from repro.index.gemini import WarpingIndex
from repro.ingest import StreamingIndexBuilder
from tests.conftest import bodies, body

CORPUS_SIZE = 60
LENGTH = 128
NORMAL = 64
QUERIES = 8
# float32 has ~7 decimal digits; banded DTW over 64-sample rows keeps
# the accumulated quantisation error well under this
DIST_TOL = 1e-4


@pytest.fixture(scope="module")
def corpus():
    return random_walks(CORPUS_SIZE, LENGTH, seed=31)


@pytest.fixture(scope="module")
def queries(corpus):
    rng = np.random.default_rng(32)
    return [corpus[i % CORPUS_SIZE] + 0.2 * rng.normal(size=LENGTH)
            for i in range(QUERIES)]


@pytest.fixture(scope="module")
def pair(tmp_path_factory, corpus):
    """(float64 in-memory index, float32 store-backed index)."""
    ids = [f"m{i}" for i in range(CORPUS_SIZE)]
    f64 = WarpingIndex(list(corpus), delta=0.1, ids=ids,
                       normal_form=NormalForm(length=NORMAL))
    root = str(tmp_path_factory.mktemp("store"))
    builder = StreamingIndexBuilder(root,
                                    normal_form=NormalForm(length=NORMAL))
    store, _ = builder.build(list(corpus), ids)
    f32 = WarpingIndex.from_store(store)
    return f64, f32


def _counters(stats) -> dict:
    """Every field of a stats record but its timings."""
    record = stats.to_dict()
    for key in ("exact_time_s", "total_time_s", "cpu_time_s"):
        del record[key]
    for stage in record["stages"]:
        del stage["wall_time_s"]
    return record


def test_engine_over_f32_corpus_is_bitwise_exact(pair, queries):
    """Answers of Cascade(float32 rows) == Cascade(float64 upcast), on
    each body."""
    _, f32 = pair
    upcast = QueryEngine(
        np.asarray(f32._data, dtype=np.float64),
        band=f32.band, n_features=f32.feature_dim,
        ids=list(f32.ids), metric=f32.metric,
    )
    for name in bodies():
        with body(name):
            for query in queries:
                q = f32.normal_form.apply(query)
                a, _ = f32.engine().knn(q, 5)
                b, _ = upcast.knn(q, 5)
                assert a == b  # bitwise: same ids, same float distances
                ra, _ = f32.engine().range_search(q, 18.0)
                rb, _ = upcast.range_search(q, 18.0)
                assert ra == rb


def test_store_envelopes_change_no_result(pair, queries):
    """An engine on the store's envelope columns equals one computing
    its own: bounds bitwise, every stats counter, and the answers, on
    each body."""
    _, f32 = pair
    given = f32.engine()
    assert np.shares_memory(given._envelopes[0], f32.store.env_lower)
    assert np.shares_memory(given._envelopes[1], f32.store.env_upper)
    assert np.shares_memory(given._env_paa, f32.store.env_paa)
    own = QueryEngine(f32._data, band=f32.band, n_features=f32.feature_dim,
                      ids=list(f32.ids), metric=f32.metric)
    assert np.array_equal(given._env_paa, own._env_paa)
    rows = np.arange(len(own))
    for name in bodies():
        with body(name):
            for query in queries:
                q = f32.normal_form.apply(query)
                sides = query_sides(q, k_envelope(q, f32.band),
                                    f32._data.dtype)
                assert np.array_equal(
                    lb_keogh_two_sided(sides, f32._data, *given._envelopes,
                                       rows),
                    lb_keogh_two_sided(sides, f32._data, *own._envelopes,
                                       rows),
                )
                for params in ({"k": 5}, {"epsilon": 18.0},
                               {"k": 3, "epsilon": 18.0}):
                    a, a_stats = given.search(q, **params)
                    b, b_stats = own.search(q, **params)
                    assert a == b
                    assert _counters(a_stats) == _counters(b_stats)


def test_range_zero_false_negatives_vs_f64(pair, queries):
    for query in queries:
        for epsilon in (10.0, 18.0, 30.0):
            exact, _ = pair[0].cascade_range_query(query, epsilon)
            stored, _ = pair[1].cascade_range_query(query,
                                                    epsilon + DIST_TOL)
            missing = ({item for item, _ in exact}
                       - {item for item, _ in stored})
            assert not missing, (
                f"float32 store lost range hits {missing} at "
                f"epsilon={epsilon}"
            )


def test_knn_matches_f64_within_float32_resolution(pair, queries):
    for query in queries:
        exact, _ = pair[0].cascade_knn_query(query, 5)
        stored, _ = pair[1].cascade_knn_query(query, 5)
        assert [item for item, _ in exact] == [item for item, _ in stored]
        drift = max(abs(a[1] - b[1]) for a, b in zip(exact, stored))
        assert drift < DIST_TOL


def test_tree_query_paths_stay_exact_on_store(pair, queries):
    """R*-tree filter answers (slackened by the margin) lose nothing."""
    _, f32 = pair
    for query in queries:
        tree, _ = f32.range_query(query, 18.0)
        cascade, _ = f32.cascade_range_query(query, 18.0)
        assert {item for item, _ in tree} == {item for item, _ in cascade}
        tree_knn, _ = f32.knn_query(query, 5)
        cascade_knn, _ = f32.cascade_knn_query(query, 5)
        assert ([item for item, _ in tree_knn]
                == [item for item, _ in cascade_knn])


def test_margin_covers_every_stored_feature(pair):
    _, f32 = pair
    store = f32.store
    feats64 = f32.env_transform.transform.transform_batch(
        np.asarray(store.normalized, dtype=np.float64)
    )
    worst = np.abs(feats64 - np.asarray(store.features)).max()
    assert worst <= store.feature_margin

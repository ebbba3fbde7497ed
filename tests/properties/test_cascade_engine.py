"""End-to-end properties of the QueryEngine filter cascade.

The cascade must be an *optimisation*, never an approximation: for any
stage configuration, corpus family, and metric, ``search`` — by *k*,
by *epsilon* (``knn`` / ``range_search``) or by both — returns exactly
the results of a brute-force scan with the exact banded DTW.  The
stats object must additionally tell a coherent story
(every row pruned, refined or skipped exactly once, pruned +
survivors = candidates in, ...), and everything is deterministic under a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dtw.distance import ldtw_distance
from repro.engine import DEFAULT_STAGES, STAGE_ORDER, QueryEngine
from repro.engine.cascade import _REFINE_GROWTH, _REFINE_ROWS
from repro.obs import Observability

from tests.conftest import KERNEL_NAMES, exact_answer, run_concurrently

from .conftest import _raw_random_walk, _raw_sine_mixture

BAND = 5
LENGTH = 72

STAGE_CONFIGS = [
    (),                             # no filtering: pure exact scan
    ("first_last",),
    ("keogh_paa",),
    ("new_paa",),
    ("lb_keogh",),
    ("lemire",),
    DEFAULT_STAGES,
    STAGE_ORDER,                    # everything, Lemire included
    ("lb_keogh", "first_last"),     # deliberately out of order
]


def _corpus(family: str, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "random_walk":
        return np.vstack(
            [_raw_random_walk(LENGTH, rng) for _ in range(size)]
        )
    return np.vstack(
        [_raw_sine_mixture(LENGTH, rng) for _ in range(size)]
    )


_FAMILY_SEEDS = {"random_walk": 11, "sine_mixture": 22}


@pytest.fixture(scope="module", params=sorted(_FAMILY_SEEDS))
def corpus(request):
    return _corpus(request.param, size=80, seed=_FAMILY_SEEDS[request.param])


@pytest.fixture(scope="module")
def query(corpus):
    rng = np.random.default_rng(4242)
    return corpus[3] + 0.35 * rng.normal(size=corpus.shape[1])


@pytest.mark.parametrize("stages", STAGE_CONFIGS,
                         ids=lambda s: "+".join(s) if s else "none")
def test_range_search_equals_ground_truth(corpus, query, stages):
    engine = QueryEngine(corpus, band=BAND, stages=stages)
    truth = engine.ground_truth_range(query, epsilon=6.0)
    results, stats = engine.range_search(query, epsilon=6.0)
    assert [(i, round(d, 9)) for i, d in results] == \
        [(i, round(d, 9)) for i, d in truth]
    assert stats.results == len(results)
    assert stats.corpus_size == corpus.shape[0]


@pytest.mark.parametrize("stages", STAGE_CONFIGS,
                         ids=lambda s: "+".join(s) if s else "none")
@pytest.mark.parametrize("k", [1, 5, 17])
def test_knn_equals_ground_truth(corpus, query, stages, k):
    engine = QueryEngine(corpus, band=BAND, stages=stages)
    truth = engine.ground_truth_knn(query, k)
    results, stats = engine.knn(query, k)
    assert len(results) == k
    assert [i for i, _ in results] == [i for i, _ in truth]
    np.testing.assert_allclose(
        [d for _, d in results], [d for _, d in truth], atol=1e-9
    )


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_metrics_give_exact_results(corpus, query, metric):
    engine = QueryEngine(corpus, band=BAND, metric=metric)
    truth = engine.ground_truth_knn(query, 7)
    results, _ = engine.knn(query, 7)
    assert [i for i, _ in results] == [i for i, _ in truth]


def test_epsilon_sweep_never_loses_results(corpus, query):
    """Zero false negatives across a sweep of selectivities."""
    engine = QueryEngine(corpus, band=BAND)
    for epsilon in (0.0, 1.0, 3.0, 8.0, 25.0, 1e6):
        truth = {i for i, _ in engine.ground_truth_range(query, epsilon)}
        got = {i for i, _ in engine.range_search(query, epsilon)[0]}
        assert got == truth, f"mismatch at epsilon={epsilon}"


def test_stats_tell_a_consistent_story(corpus, query):
    """A range query walks the corpus as k-NN does: ``new_paa`` bounds
    every row, the rows within epsilon are read, and each later stage
    bounds the rows the ones before it kept.  Every row is pruned by a
    bound or refined, exactly once."""
    engine = QueryEngine(corpus, band=BAND, stages=STAGE_ORDER)
    _, stats = engine.range_search(query, epsilon=5.0)
    assert [s.name for s in stats.stages] == list(STAGE_ORDER)
    by_name = {stage.name: stage for stage in stats.stages}
    assert by_name["new_paa"].candidates_in == corpus.shape[0]
    passes = [by_name[name] for name in STAGE_ORDER if name != "new_paa"]
    assert passes[0].candidates_in == by_name["new_paa"].survivors
    for left, right in zip(passes[:-1], passes[1:]):
        assert left.survivors == right.candidates_in
    for stage in stats.stages:
        assert stage.pruned + stage.survivors == stage.candidates_in
        assert 0.0 <= stage.prune_rate <= 1.0
        assert stage.wall_time_s >= 0.0
    assert stats.pruned_total == sum(s.pruned for s in stats.stages)
    assert stats.exact_candidates == passes[-1].survivors
    assert stats.dtw_computations == stats.exact_candidates
    assert stats.exact_skipped == 0
    assert (stats.pruned_total + stats.dtw_computations
            == corpus.shape[0])


def test_knn_stats_account_for_every_candidate(corpus, query):
    engine = QueryEngine(corpus, band=BAND)
    results, stats = engine.knn(query, 5)
    assert len(results) == 5
    # Every corpus series is pruned by a bound, refined exactly, or
    # skipped by the best-first walk once k answers were proven safe —
    # exactly one of the three (rows the walk never read count as
    # pruned by the bound that ordered it).
    accounted = (stats.pruned_total + stats.dtw_computations
                 + stats.exact_skipped)
    assert accounted == stats.corpus_size
    assert stats.dtw_computations <= stats.corpus_size
    assert stats.dtw_computations >= 5  # at least the k answers
    assert stats.dtw_abandoned <= stats.dtw_computations


def test_knn_distances_match_independent_recomputation(corpus, query):
    """Early abandoning never corrupts a returned distance."""
    engine = QueryEngine(corpus, band=BAND)
    results, _ = engine.knn(query, 9)
    for row, dist in results:
        plain = ldtw_distance(query, corpus[int(row)], BAND)
        assert dist == pytest.approx(plain, abs=1e-9)


def test_engine_is_deterministic(corpus, query):
    a_results, a_stats = QueryEngine(corpus, band=BAND).knn(query, 6)
    b_results, b_stats = QueryEngine(corpus, band=BAND).knn(query, 6)
    assert a_results == b_results
    assert ([(s.name, s.candidates_in, s.pruned) for s in a_stats.stages]
            == [(s.name, s.candidates_in, s.pruned) for s in b_stats.stages])
    assert a_stats.dtw_computations == b_stats.dtw_computations


def test_custom_ids_and_delta(corpus, query):
    ids = [f"melody-{i:03d}" for i in range(corpus.shape[0])]
    engine = QueryEngine(corpus, delta=0.08, ids=ids)
    results, _ = engine.knn(query, 3)
    assert all(isinstance(i, str) and i.startswith("melody-")
               for i, _ in results)
    truth = engine.ground_truth_knn(query, 3)
    assert [i for i, _ in results] == [i for i, _ in truth]


def test_stats_merge_summary_and_projection(corpus, query):
    """CascadeStats aggregates across queries and renders everywhere."""
    engine = QueryEngine(corpus, band=BAND)
    _, a = engine.knn(query, 3)
    _, b = engine.knn(query + 1.0, 3)
    merged = a + b
    assert merged.corpus_size == a.corpus_size + b.corpus_size
    assert merged.dtw_computations == a.dtw_computations + b.dtw_computations
    assert merged.pruned_total == a.pruned_total + b.pruned_total
    for stage, left, right in zip(merged.stages, a.stages, b.stages):
        assert stage.candidates_in == left.candidates_in + right.candidates_in
        assert stage.pruned == left.pruned + right.pruned
    summary = merged.summary()
    for name in DEFAULT_STAGES:
        assert name in summary
    assert "results" in summary
    projected = a.as_query_stats()
    assert projected.candidates == a.exact_candidates
    assert projected.extra["pruned_by_cascade"] == a.pruned_total
    assert projected.extra["dtw_abandoned"] == a.dtw_abandoned
    with pytest.raises(ValueError, match="merge"):
        a + QueryEngine(corpus, band=BAND, stages=()).knn(query, 1)[1]


def test_normal_form_engine_accepts_ragged_corpus():
    from repro.core.normal_form import NormalForm

    rng = np.random.default_rng(88)
    corpus = [np.cumsum(rng.normal(size=int(rng.integers(40, 90))))
              for _ in range(50)]
    engine = QueryEngine(corpus, delta=0.1,
                         normal_form=NormalForm(length=48))
    query = np.cumsum(rng.normal(size=70))
    results, _ = engine.knn(query, 4)
    truth = engine.ground_truth_knn(query, 4)
    assert [i for i, _ in results] == [i for i, _ in truth]


def test_validation_errors():
    data = np.zeros((4, 16))
    with pytest.raises(ValueError, match="exactly one"):
        QueryEngine(data)
    with pytest.raises(ValueError, match="exactly one"):
        QueryEngine(data, band=2, delta=0.1)
    with pytest.raises(ValueError, match="unknown stage"):
        QueryEngine(data, band=2, stages=("warp_speed",))
    engine = QueryEngine(data, band=2)
    with pytest.raises(ValueError, match="epsilon"):
        engine.range_search(np.zeros(16), -1.0)
    with pytest.raises(ValueError, match="k"):
        engine.knn(np.zeros(16), 0)


# ----------------------------------------------------------------------
# DTW refinement
# ----------------------------------------------------------------------


def _epsilon_leaving(engine, query, survivors: int) -> float:
    """An epsilon at which exactly *survivors* rows reach the refine step.

    Bisects on the engine's own ``exact_candidates``, which only grows
    with epsilon, so it holds for whatever stages *engine* runs.
    """
    assert survivors < len(engine)
    lo, hi = 0.0, 1.0
    while engine.range_search(query, hi)[1].exact_candidates <= survivors:
        hi *= 2
    for _ in range(100):
        mid = (lo + hi) / 2
        count = engine.range_search(query, mid)[1].exact_candidates
        if count == survivors:
            return mid
        lo, hi = (mid, hi) if count < survivors else (lo, mid)
    raise AssertionError(f"no epsilon leaves exactly {survivors} survivors")


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_kernel_backend_range_equals_ground_truth(corpus, query, kernel):
    """Range answers equal an exhaustive scan by either DTW kernel."""
    engine = QueryEngine(corpus, band=BAND)
    truth = exact_answer(engine, query, kernel, epsilon=6.0)
    results, _ = engine.range_search(query, epsilon=6.0)
    assert [i for i, _ in results] == [i for i, _ in truth]
    np.testing.assert_allclose(
        [d for _, d in results], [d for _, d in truth], atol=1e-9
    )
    # Small survivor sets take the same batched call as large ones:
    # none, a single row, a pair, and a few dozen.
    for survivors in (0, 1, 2, 63, 64, 65):
        epsilon = _epsilon_leaving(engine, query, survivors)
        results, stats = engine.range_search(query, epsilon)
        assert stats.exact_candidates == survivors
        assert stats.dtw_computations == survivors
        truth = exact_answer(engine, query, kernel, epsilon=epsilon)
        assert [i for i, _ in results] == [i for i, _ in truth]
        np.testing.assert_allclose(
            [d for _, d in results], [d for _, d in truth], atol=1e-9
        )


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("k", [1, 9])
def test_kernel_backend_knn_equals_ground_truth(corpus, query, kernel, k):
    """k-NN answers equal an exhaustive scan by either DTW kernel."""
    engine = QueryEngine(corpus, band=BAND)
    truth = exact_answer(engine, query, kernel, k=k)
    results, _ = engine.knn(query, k)
    assert [i for i, _ in results] == [i for i, _ in truth]
    np.testing.assert_allclose(
        [d for _, d in results], [d for _, d in truth], atol=1e-9
    )


def test_kernel_backends_agree_to_1e9(corpus, query):
    """Exhaustive scans by the row loop and by the batch kernel give the
    same range and k-NN answers, and the engine serves that answer."""
    engine = QueryEngine(corpus, band=BAND)
    served = (engine.range_search(query, epsilon=8.0)[0],
              engine.knn(query, 6)[0])
    for kernel in KERNEL_NAMES:
        scans = (exact_answer(engine, query, kernel, epsilon=8.0),
                 exact_answer(engine, query, kernel, k=6))
        for got, want in zip(served, scans):
            assert [i for i, _ in got] == [i for i, _ in want]
            np.testing.assert_allclose(
                [d for _, d in got], [d for _, d in want], atol=1e-9
            )


def test_refine_is_one_kernel_dispatch_per_slice(corpus, query):
    """Every survivor set goes through the batched kernel, a slice a call."""
    obs = Observability()
    calls = obs.metrics.counter("dtw.kernel_calls_total")
    engine = QueryEngine(corpus, band=BAND, obs=obs)
    epsilon = _epsilon_leaving(engine, query, 40)
    before = calls.value
    _, stats = engine.range_search(query, epsilon)
    assert stats.dtw_computations == 40
    assert calls.value - before == 1

    rng = np.random.default_rng(5)
    big = np.cumsum(rng.normal(size=(2000, LENGTH)), axis=1)
    hum = big[7] + 2.0 * rng.normal(size=LENGTH)
    obs, sink = Observability.in_memory()
    calls = obs.metrics.counter("dtw.kernel_calls_total")
    engine = QueryEngine(big, band=BAND, obs=obs)
    before = calls.value
    results, stats = engine.knn(hum, 10)
    (trace,) = sink.traces
    slices = [span.attrs["rows"] for span in trace if span.name == "refine"]
    # One kernel call per refine slice.  The k-NN walk refines slices
    # of at most k, k x _REFINE_GROWTH, ... rows (capped at
    # _REFINE_ROWS), each cut where the pending bounds pass the radius
    # or the next unread row's bound, and they add up to the rows
    # refined.
    assert calls.value - before == len(slices)
    size = 10
    for rows in slices:
        assert 1 <= rows <= size
        size = min(size * _REFINE_GROWTH, _REFINE_ROWS)
    assert sum(slices) == stats.dtw_computations
    assert ([i for i, _ in results]
            == [i for i, _ in engine.ground_truth_knn(hum, 10)])


def _corpus_with_twins(size: int = 60, copies: int = 3) -> np.ndarray:
    """Random walks, each held *copies* times: ties at every distance."""
    rng = np.random.default_rng(31)
    walks = np.cumsum(rng.normal(size=(size // copies, LENGTH)), axis=1)
    return np.repeat(walks, copies, axis=0)


@pytest.mark.parametrize("k", (1, 10, 60))
@pytest.mark.parametrize("stages", (DEFAULT_STAGES, ()),
                         ids=("default", "none"))
def test_knn_slices_equal_ground_truth_with_duplicates_and_ties(k, stages):
    """The growing refine slices give the oracle's answer — ids in
    (distance, row) order and distances exactly — on a corpus whose
    rows come in triples, so the k-th distance is tied."""
    corpus = _corpus_with_twins()
    engine = QueryEngine(corpus, band=BAND, stages=stages)
    rng = np.random.default_rng(32)
    for target in (0, 13, 44):
        hum = corpus[target] + 0.8 * rng.normal(size=LENGTH)
        truth = engine.ground_truth_knn(hum, k)
        if k < len(corpus):
            # The k-th and (k+1)-th rows are twins: a tie at the k-th
            # distance that only the row order breaks.
            tail = engine.ground_truth_knn(hum, k + 1)
            assert tail[k - 1][1] == tail[k][1]
        results, _ = engine.knn(hum, k)
        assert results == truth


def test_knn_walk_refines_fewer_rows_than_one_big_slice():
    """Slices that grow from k refine fewer rows than the walk they
    replace (a k-row opening slice, then 1 024-row slices), which
    refined 3 161 rows over these eight hums."""
    rng = np.random.default_rng(5)
    big = np.cumsum(rng.normal(size=(2000, LENGTH)), axis=1)
    engine = QueryEngine(big, band=BAND)
    noise = np.random.default_rng(6)
    refined = 0
    for target in range(0, 2000, 250):
        hum = big[target] + 6.0 * noise.normal(size=LENGTH)
        results, stats = engine.knn(hum, 10)
        assert results == engine.ground_truth_knn(hum, 10)
        refined += stats.dtw_computations
    assert refined < 3161


# ----------------------------------------------------------------------
# k and epsilon together: the k best within epsilon
# ----------------------------------------------------------------------

#: How many rows the epsilon-range holds, relative to k.
RANGE_SIZES = ("fewer", "exact", "more")


def _epsilon(engine, query, k: int, size: str) -> float:
    """An epsilon whose range holds k - 1, k or k + 2 rows (*size*)."""
    dists = [d for _, d in engine.ground_truth(query, k=k + 3)]
    held = {"fewer": k - 1, "exact": k, "more": k + 2}[size]
    return (dists[held - 1] + dists[held]) / 2 if held else dists[0] / 2


def _assert_same_answer(got, want):
    assert [i for i, _ in got] == [i for i, _ in want]
    np.testing.assert_allclose(
        [d for _, d in got], [d for _, d in want], atol=1e-9
    )


@pytest.mark.parametrize("stages", STAGE_CONFIGS,
                         ids=lambda s: "+".join(s) if s else "none")
@pytest.mark.parametrize("k", [1, 5, 17])
@pytest.mark.parametrize("size", RANGE_SIZES)
def test_k_and_epsilon_equal_ground_truth(corpus, query, stages, k, size):
    engine = QueryEngine(corpus, band=BAND, stages=stages)
    epsilon = _epsilon(engine, query, k, size)
    truth = engine.ground_truth(query, k=k, epsilon=epsilon)
    assert len(truth) == (k - 1 if size == "fewer" else k)
    results, stats = engine.search(query, k=k, epsilon=epsilon)
    _assert_same_answer(results, truth)
    assert stats.results == len(results)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("size", RANGE_SIZES)
def test_k_and_epsilon_on_every_metric_and_backend(corpus, query, metric,
                                                   kernel, size):
    """k and epsilon together equal an exhaustive scan by either DTW
    kernel, under both metrics."""
    engine = QueryEngine(corpus, band=BAND, metric=metric)
    for k in (1, 5, 17):
        epsilon = _epsilon(engine, query, k, size)
        _assert_same_answer(
            engine.search(query, k=k, epsilon=epsilon)[0],
            exact_answer(engine, query, kernel, k=k, epsilon=epsilon),
        )


@pytest.fixture(scope="module")
def router(corpus):
    from repro.shard import ShardRouter

    with ShardRouter(corpus, shards=2, band=BAND) as router:
        yield router


@pytest.mark.parametrize("size", RANGE_SIZES)
def test_k_and_epsilon_on_a_sharded_router(corpus, query, router, size):
    engine = QueryEngine(corpus, band=BAND)
    for k in (1, 5, 17):
        epsilon = _epsilon(engine, query, k, size)
        _assert_same_answer(router.search(query, k=k, epsilon=epsilon)[0],
                            engine.ground_truth(query, k=k, epsilon=epsilon))


def _counters(stats) -> dict:
    """A stats record without its timings."""
    payload = stats.to_dict()
    for key in ("exact_time_s", "total_time_s", "cpu_time_s"):
        del payload[key]
    for stage in payload["stages"]:
        del stage["wall_time_s"]
    return payload


def test_range_search_and_knn_are_spellings_of_search(corpus, query):
    engine = QueryEngine(corpus, band=BAND)
    for spelled, direct in (
        (engine.range_search(query, 6.0), engine.search(query, epsilon=6.0)),
        (engine.knn(query, 5), engine.search(query, k=5)),
    ):
        assert spelled[0] == direct[0]
        assert _counters(spelled[1]) == _counters(direct[1])


# ----------------------------------------------------------------------
# concurrent callers
# ----------------------------------------------------------------------


def _many_queries(corpus, count=9):
    rng = np.random.default_rng(777)
    rows = rng.choice(corpus.shape[0], size=count, replace=False)
    return [corpus[row] + 0.3 * rng.normal(size=corpus.shape[1])
            for row in rows]


@pytest.mark.parametrize("workers", [1, 4])
def test_range_search_many_matches_sequential(corpus, workers):
    engine = QueryEngine(corpus, band=BAND)
    queries = _many_queries(corpus)
    answers = run_concurrently(
        lambda query: engine.range_search(query, 6.0), queries,
        threads=workers,
    )
    assert len(answers) == len(queries)
    total_results = 0
    for query, (results, _) in zip(queries, answers):
        expect, _ = engine.range_search(query, 6.0)
        assert results == expect
        total_results += len(expect)
    merged = sum((stats for _, stats in answers[1:]), answers[0][1])
    assert merged.corpus_size == corpus.shape[0] * len(queries)
    assert merged.results == total_results
    assert merged.total_time_s >= 0.0


@pytest.mark.parametrize("workers", [1, 4])
def test_knn_many_matches_sequential(corpus, workers):
    engine = QueryEngine(corpus, band=BAND)
    queries = _many_queries(corpus)
    answers = run_concurrently(
        lambda query: engine.knn(query, 5), queries, threads=workers
    )
    for query, (results, _) in zip(queries, answers):
        expect, _ = engine.knn(query, 5)
        assert [i for i, _ in results] == [i for i, _ in expect]
        np.testing.assert_allclose(
            [d for _, d in results], [d for _, d in expect], atol=1e-9
        )
    assert (sum(stats.dtw_computations for _, stats in answers)
            >= 5 * len(queries))


def test_stage_kernel_validation():
    from repro.core.envelope import k_envelope
    from repro.engine import lb_envelope_batch, lb_first_last_batch

    q = np.zeros(16)
    env = k_envelope(q, 2)
    with pytest.raises(ValueError, match="metric"):
        lb_envelope_batch(np.zeros((3, 16)), env, metric="chebyshev")
    with pytest.raises(ValueError):
        lb_envelope_batch(np.zeros((3, 8)), env)       # length mismatch
    with pytest.raises(ValueError):
        lb_first_last_batch(q, np.zeros(16))           # not a matrix


@pytest.mark.parametrize("kind", ["knn", "range", "both"])
def test_trace_is_lossless_stats_projection(corpus, query, kind):
    """A traced query's span tree rebuilds the exact CascadeStats.

    Observability is a projection, not a second bookkeeping system:
    every span attribute is set verbatim from the stats fields, so
    ``CascadeStats.from_trace`` must round-trip — for the live span
    objects and their exported-dict form alike.
    """
    from repro.engine import CascadeStats

    obs, sink = Observability.in_memory()
    engine = QueryEngine(corpus, band=BAND, obs=obs)
    params = {"knn": {"k": 4}, "range": {"epsilon": 6.0},
              "both": {"k": 4, "epsilon": 6.0}}[kind]
    _, stats = engine.search(query, **params)
    (trace,) = sink.traces
    assert CascadeStats.from_trace(trace) == stats
    assert CascadeStats.from_trace([s.to_dict() for s in trace]) == stats

    # The trace is one tree: a single root, every parent resolvable.
    ids = {span.span_id for span in trace}
    roots = [span for span in trace if span.parent_id is None]
    assert len(roots) == 1 and roots[0].name == "query"
    assert all(span.parent_id in ids for span in trace
               if span.parent_id is not None)


def test_traced_and_plain_engines_answer_identically(corpus, query):
    """Attaching observability never changes an answer."""
    plain = QueryEngine(corpus, band=BAND)
    traced = QueryEngine(corpus, band=BAND, obs=Observability())
    assert plain.knn(query, 5)[0] == traced.knn(query, 5)[0]
    assert (plain.range_search(query, 6.0)[0]
            == traced.range_search(query, 6.0)[0])

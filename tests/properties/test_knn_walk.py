"""The best-first k-NN walk against the oracle.

A k-NN query reads the corpus in ascending ``new_paa`` order, a block
at a time, bounds each block with the plan's other stages and refines
from the pending rows only while their best bound is at most the next
unread row's (Seidl-Kriegel at each level of the cascade).  Whatever
it skips, it must return exactly what :meth:`QueryEngine.ground_truth`
returns — ids in (distance, row) order and distances equal — for any
plan, any k, ties at the k-th distance, k with epsilon, and a float32
store, on the native stage bodies and on the NumPy fallback.  Its stats
must still project onto one ``stage:<name>`` span per stage, and an
abort between blocks must raise, never answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.engine import STAGE_ORDER, CascadeStats, QueryAborted, QueryEngine
from repro.engine import cascade
from repro.index.gemini import WarpingIndex
from repro.ingest import StreamingIndexBuilder
from repro.obs import Observability
from tests.conftest import bodies, body

BAND = 4
LENGTH = 48

PLANS = [(), ("lb_keogh",), ("keogh_paa",), cascade.DEFAULT_STAGES,
         STAGE_ORDER]


def _plan_id(plan) -> str:
    return "+".join(plan) if plan else "none"


def _triplicated(walks: int = 70, seed: int = 41) -> np.ndarray:
    """Random walks, each held three times: ties at every distance."""
    rng = np.random.default_rng(seed)
    rows = np.cumsum(rng.normal(size=(walks, LENGTH)), axis=1)
    return np.repeat(rows, 3, axis=0)


CORPUS = _triplicated()


def _hums(corpus, count: int = 4, noise: float = 1.0, seed: int = 42):
    rng = np.random.default_rng(seed)
    targets = rng.choice(len(corpus), size=count, replace=False)
    return [corpus[t] + noise * rng.normal(size=corpus.shape[1])
            for t in targets]


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    """Blocks growing from k rows to 16 and a 32-row first head, so a
    210-row corpus takes many blocks and the order's lazy re-sorts."""
    monkeypatch.setattr(cascade, "_WALK_FIRST", 1)
    monkeypatch.setattr(cascade, "_WALK_BLOCK", 16)
    monkeypatch.setattr(cascade, "_WALK_HEAD", 32)


@pytest.mark.parametrize("plan", PLANS, ids=_plan_id)
@pytest.mark.parametrize("k", [1, 10, len(CORPUS)])
def test_walk_equals_ground_truth(plan, k):
    engine = QueryEngine(CORPUS, band=BAND, stages=plan)
    for name in bodies():
        with body(name):
            for hum in _hums(CORPUS):
                truth = engine.ground_truth(hum, k=k)
                results, stats = engine.knn(hum, k)
                assert results == truth
                assert stats.results == len(truth)


@pytest.mark.parametrize("plan", PLANS, ids=_plan_id)
@pytest.mark.parametrize("k", [1, 2, 10])
def test_ties_at_the_kth_distance(plan, k):
    """Rows come in triples, so for k not a multiple of 3 the k-th and
    (k+1)-th nearest are twins at one distance; the walk keeps the
    lower row, as the oracle's (distance, row) order does."""
    engine = QueryEngine(CORPUS, band=BAND, stages=plan)
    for name in bodies():
        with body(name):
            for hum in _hums(CORPUS, noise=0.6, seed=43):
                truth = engine.ground_truth(hum, k=k + 1)
                assert truth[k - 1][1] == truth[k][1]
                assert engine.knn(hum, k)[0] == truth[:k]


@pytest.mark.parametrize("plan", PLANS, ids=_plan_id)
@pytest.mark.parametrize("held", ["fewer", "exact", "more"])
def test_k_with_epsilon(plan, held):
    """The k best within epsilon: a range holding fewer, exactly or
    more than k rows."""
    engine = QueryEngine(CORPUS, band=BAND, stages=plan)
    k = 10
    for hum in _hums(CORPUS, seed=44):
        dists = [d for _, d in engine.ground_truth(hum, k=k + 6)]
        cut = {"fewer": k - 3, "exact": k, "more": k + 5}[held]
        # Midway between two distinct distances at or after the cut.
        while dists[cut] == dists[cut - 1]:
            cut += 1
        epsilon = (dists[cut - 1] + dists[cut]) / 2
        truth = engine.ground_truth(hum, k=k, epsilon=epsilon)
        for name in bodies():
            with body(name):
                assert engine.search(hum, k=k, epsilon=epsilon)[0] == truth


@pytest.fixture(scope="module")
def store_index(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("walk-store"))
    builder = StreamingIndexBuilder(
        root, normal_form=NormalForm(length=LENGTH), delta=0.2)
    store, _ = builder.build(list(CORPUS), [f"m{i}" for i in
                                            range(len(CORPUS))])
    return WarpingIndex.from_store(store)


@pytest.mark.parametrize("plan", PLANS, ids=_plan_id)
@pytest.mark.parametrize("k", [1, 10, len(CORPUS)])
def test_walk_on_a_float32_store(store_index, plan, k):
    """Over the store's float32 rows and its ``env_paa`` column."""
    engine = store_index.engine(stages=plan)
    assert engine._data.dtype == np.float32
    for name in bodies():
        with body(name):
            for hum in _hums(CORPUS, seed=45):
                q = store_index.normal_form.apply(hum)
                assert engine.knn(q, k)[0] == engine.ground_truth(q, k=k)


def test_walk_skips_work_and_accounts_for_every_row():
    """On a corpus of 3 000 rows the walk bounds a fraction of them
    with ``lb_keogh``; every row is still pruned, refined or skipped
    exactly once, and each stage's ``candidates_in`` is the rows it
    bounded."""
    rng = np.random.default_rng(46)
    corpus = np.cumsum(rng.normal(size=(3000, LENGTH)), axis=1)
    engine = QueryEngine(corpus, band=BAND, stages=STAGE_ORDER)
    for hum in _hums(corpus, noise=0.5, seed=47):
        results, stats = engine.knn(hum, 10)
        assert results == engine.ground_truth(hum, k=10)
        by_name = {stage.name: stage for stage in stats.stages}
        assert [stage.name for stage in stats.stages] == list(STAGE_ORDER)
        assert by_name["new_paa"].candidates_in == len(corpus)
        read = by_name["new_paa"].survivors
        assert by_name["first_last"].candidates_in == read
        assert by_name["keogh_paa"].candidates_in == (
            by_name["first_last"].survivors)
        assert by_name["lb_keogh"].candidates_in == (
            by_name["keogh_paa"].survivors)
        assert by_name["lemire"].candidates_in == (
            by_name["lb_keogh"].survivors)
        assert by_name["lb_keogh"].candidates_in < len(corpus) // 2
        assert (stats.pruned_total + stats.dtw_computations
                + stats.exact_skipped) == len(corpus)
        assert stats.exact_candidates == (stats.dtw_computations
                                          + stats.exact_skipped)


@pytest.mark.parametrize("plan", PLANS, ids=_plan_id)
def test_trace_rebuilds_the_walks_stats(plan):
    """One ``stage:<name>`` span per stage per query, carrying the
    summed stats, so ``CascadeStats.from_trace`` rebuilds them; stage
    times exclude the refine, which runs in between."""
    obs, sink = Observability.in_memory()
    engine = QueryEngine(CORPUS, band=BAND, stages=plan, obs=obs)
    for hum in _hums(CORPUS, seed=48):
        _, stats = engine.knn(hum, 10)
        trace = sink.traces[-1]
        assert CascadeStats.from_trace(trace) == stats
        assert CascadeStats.from_trace([s.to_dict() for s in trace]) == stats
        names = [s.name for s in trace if s.name.startswith("stage:")]
        assert names == ["stage:" + name for name in plan]
        (root,) = [s for s in trace if s.parent_id is None]
        assert all(s.parent_id == root.span_id for s in trace
                   if s.name.startswith("stage:") or s.name == "refine")
        staged = sum(stage.wall_time_s for stage in stats.stages)
        assert staged + stats.exact_time_s <= stats.total_time_s


def test_abort_between_blocks_raises_and_never_answers():
    """Sweep the abort point over every poll of a query: each one
    raises ``QueryAborted``, and the polls reach the blocks' stages and
    the refine."""
    engine = QueryEngine(CORPUS, band=BAND)
    hum = _hums(CORPUS, seed=49)[0]
    want = engine.knn(hum, 10)[0]
    phases, budget = [], 0
    while True:
        polls = 0

        def abort():
            nonlocal polls
            polls += 1
            return polls > budget

        try:
            results, _ = engine.knn(hum, 10, should_abort=abort)
        except QueryAborted as exc:
            phases.append(exc.phase)
            budget += 1
            continue
        assert results == want
        break
    assert phases[0] == "stage:new_paa"
    assert {"stage:first_last", "stage:keogh_paa", "stage:lb_keogh",
            "refine"} <= set(phases)
    # Blocks after the first are polled too, not only the opening one.
    assert phases.count("stage:first_last") > 1


def test_engine_checks_the_given_env_paa_column():
    """``envelopes=(lower, upper, paa)`` takes a store's column only in
    the shape and dtype the engine would compute itself."""
    from repro.core.envelope import batch_envelope
    from repro.core.envelope_transforms import envelope_paa, row_paa_frames

    rows = CORPUS.astype(np.float32)
    lower, upper = batch_envelope(rows, BAND)
    paa = envelope_paa(lower, upper, row_paa_frames(8, LENGTH))
    given = QueryEngine(rows, band=BAND, envelopes=(lower, upper, paa))
    own = QueryEngine(rows, band=BAND)
    assert np.array_equal(given._env_paa, own._env_paa)
    for bad in (paa.astype(np.float64), paa[:, :-1], paa[:-1]):
        with pytest.raises(ValueError, match="New_PAA column"):
            QueryEngine(rows, band=BAND, envelopes=(lower, upper, bad))
    with pytest.raises(ValueError, match="envelopes must be"):
        QueryEngine(rows, band=BAND, envelopes=(lower, upper, paa, paa))


def test_range_on_a_corpus_of_several_paa_blocks():
    """A range query bounds ``new_paa`` on an index array longer than
    the stage's 2 048-row blocks; the answer is the oracle's."""
    rng = np.random.default_rng(50)
    corpus = np.cumsum(rng.normal(size=(5000, LENGTH)), axis=1)
    engine = QueryEngine(corpus, band=BAND, stages=("new_paa", "lb_keogh"))
    for hum in _hums(corpus, count=2, noise=0.5, seed=51):
        epsilon = engine.ground_truth(hum, k=8)[-1][1]
        for name in bodies():
            with body(name):
                results, stats = engine.range_search(hum, epsilon)
                assert results == engine.ground_truth(hum, epsilon=epsilon)
                assert stats.stages[0].candidates_in == len(corpus)


def test_stages_prune_on_a_store_of_one_default_block(monkeypatch):
    """With the default block sizes, a 1 000-row store is no longer one
    block read before any distance is known: the first block is a few
    times k rows, so the walk stops before it has read the store."""
    monkeypatch.undo()
    assert cascade._WALK_FIRST * 10 < 1000 <= cascade._WALK_BLOCK
    rng = np.random.default_rng(52)
    corpus = np.cumsum(rng.normal(size=(1000, LENGTH)), axis=1)
    engine = QueryEngine(corpus, band=BAND)
    for name in bodies():
        with body(name):
            for hum in _hums(corpus, noise=0.5, seed=53):
                results, stats = engine.knn(hum, 10)
                assert results == engine.ground_truth(hum, k=10)
                by_name = {stage.name: stage for stage in stats.stages}
                assert by_name["new_paa"].pruned > 0
                assert by_name["lb_keogh"].candidates_in < len(corpus)

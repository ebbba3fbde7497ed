"""Cooperative cancellation: engine hooks and serve-layer deadlines.

The contract under test: a lapsed deadline yields ``QueryAborted`` /
``deadline_exceeded`` — *never* a partial or wrong answer — and a
callback that never fires leaves results bit-for-bit unchanged.
"""

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryAborted, QueryEngine
from repro.serve import AdmissionPolicy, QBHService


@pytest.fixture(scope="module")
def corpus():
    return random_walks(80, 64, seed=13)


@pytest.fixture(scope="module")
def engine(corpus):
    return QueryEngine(list(corpus), delta=0.1)


@pytest.fixture(scope="module")
def query(corpus):
    rng = np.random.default_rng(14)
    return corpus[4] + 0.1 * rng.normal(size=64)


class TestEngineHooks:
    def test_never_abort_matches_baseline(self, engine, query):
        baseline, _ = engine.knn(query, 5)
        checked, _ = engine.knn(query, 5, should_abort=lambda: False)
        assert checked == baseline
        baseline_r, _ = engine.range_search(query, 3.0)
        checked_r, _ = engine.range_search(
            query, 3.0, should_abort=lambda: False
        )
        assert checked_r == baseline_r

    def test_immediate_abort_raises_with_phase(self, engine, query):
        with pytest.raises(QueryAborted) as exc_info:
            engine.knn(query, 5, should_abort=lambda: True)
        assert exc_info.value.phase.startswith("stage:")
        with pytest.raises(QueryAborted):
            engine.range_search(query, 3.0, should_abort=lambda: True)

    def test_abort_reaches_every_phase(self, engine, query):
        """Sweeping the abort point over the call count proves the
        checkpoints actually cover stages *and* refine."""
        phases = set()
        budget = 0
        while True:
            calls = 0

            def abort():
                nonlocal calls
                calls += 1
                return calls > budget

            try:
                engine.knn(query, 5, should_abort=abort)
                break  # budget outlasted the query: no abort left to see
            except QueryAborted as exc:
                phases.add(exc.phase)
            budget += 1
        assert any(p.startswith("stage:") for p in phases)
        assert "refine" in phases

    def test_abort_is_all_or_nothing(self, engine, query):
        """An aborted call must not have handed back anything."""
        try:
            results, _ = engine.knn(query, 5, should_abort=lambda: True)
        except QueryAborted:
            results = None
        assert results is None


class TestServeDeadlines:
    def test_lapsed_deadline_is_never_a_result(self):
        """Acceptance gate: zero deadline violations returned as
        results, even when every request's deadline is impossible."""
        big_corpus = random_walks(500, 256, seed=15)
        big = QueryEngine(list(big_corpus), delta=0.1)
        rng = np.random.default_rng(16)
        service = QBHService.from_engine(big, linger_ms=0.0, max_batch=4)
        try:
            futures = [
                service.submit(
                    "knn", big_corpus[i] + 0.1 * rng.normal(size=256), 5,
                    deadline_s=1e-7,
                )
                for i in range(10)
            ]
            outcomes = [f.result(timeout=30) for f in futures]
        finally:
            service.close()
        assert all(o.status == "deadline_exceeded" for o in outcomes)
        assert all(o.results is None for o in outcomes)

    def test_generous_deadline_answers_normally(self, engine, query):
        service = QBHService.from_engine(engine, linger_ms=0.0)
        try:
            outcome = service.knn(query, 5, deadline_s=60.0)
        finally:
            service.close()
        direct, _ = engine.knn(query, 5)
        assert outcome.ok
        assert list(outcome.results) == [
            (item, float(dist)) for item, dist in direct
        ]

    def test_deadline_checked_after_execution_too(self, engine, query):
        """A batch whose group deadline was generous can still finish
        past an individual member's stricter deadline — that member
        must come back as a miss, not a late answer."""
        service = QBHService.from_engine(
            engine, linger_ms=0.0,
            admission=AdmissionPolicy(default_deadline_s=1e-7),
        )
        try:
            # group deadline = the max over coalesced members; here a
            # single member, so execution itself aborts cooperatively.
            outcome = service.knn(query, 5)
            assert outcome.status == "deadline_exceeded"
            assert outcome.results is None
        finally:
            service.close()

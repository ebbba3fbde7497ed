"""The closed-loop load generator: Zipf specs and served-answer parity."""

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.serve import QBHService
from repro.serve.loadgen import (
    result_digest,
    run_load,
    service_dispatch,
    zipf_workload,
)


def test_zipf_specs_leave_scenario_fields_unset():
    specs = zipf_workload(4, 2, seed=1)
    assert all(s.scenario is None and s.severity is None
               and s.target is None for s in specs)


@pytest.mark.parametrize("shards", [None, 2])
def test_served_answers_match_direct_engine_calls_under_load(shards):
    """Concurrent clients through the cache and coalescing, in process or
    over a shard fleet, get for every request the bytes a direct engine
    call returns; none is shed or fails."""
    corpus = random_walks(120, 48, seed=51)
    engine = QueryEngine(list(corpus), delta=0.1)
    rng = np.random.default_rng(52)
    pool = [corpus[i * 7] + 0.15 * rng.normal(size=48) for i in range(8)]
    specs = zipf_workload(48, len(pool), s=1.3, seed=53,
                          kinds=("knn", "range"), knn_k=5, epsilon=10.0)
    truth = {}
    for spec in specs:
        if spec not in truth:
            query = pool[spec.query_index]
            if spec.kind == "range":
                want, _ = engine.range_search(query, spec.param)
            else:
                want, _ = engine.knn(query, spec.param)
            truth[spec] = result_digest(want)

    with QBHService.from_engine(engine, shards=shards,
                                cache_size=64) as service:
        report = run_load(service_dispatch(service), specs, pool, clients=4)

    assert report.completed == len(specs)
    assert report.by_status == {"ok": len(specs)}
    for record in report.records:
        assert record.digest == truth[record.spec], record.spec

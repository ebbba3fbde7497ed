"""Cross-shard parity suite: 1 vs N shards, byte-identical, every path.

The acceptance bar for the shard tier is the serving layer's, one
level down: partitioning must never change what the engine computes.
This suite drives the combinations that could disagree —
``dtw_backend`` (vectorized/scalar) x request kind (range/knn) x
callers (one thread / several at once) x shard count — through the
``repro perf replay`` harness with ``atol=0.0``: the recorded
single-engine answer and every sharded replay must match to the last
float bit, order included.
"""

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.perf import replay_workload
from repro.serve.loadgen import result_digest
from repro.shard import ShardRouter

BACKENDS = ("vectorized", "scalar")
SHARD_COUNTS = (1, 2, 3)


@pytest.fixture(scope="module")
def corpus():
    return random_walks(36, 48, seed=91)


@pytest.fixture(scope="module")
def queries(corpus):
    rng = np.random.default_rng(92)
    return [corpus[i * 3] + 0.12 * rng.normal(size=corpus.shape[1])
            for i in range(5)]


def _engine(corpus, backend):
    return QueryEngine(list(corpus), delta=0.1, dtw_backend=backend)


def _records(engine, queries):
    """Ground-truth workload records, as the capture path would emit."""
    records = []
    for i, query in enumerate(queries):
        for kind, param in (("knn", 4), ("range", 5.0)):
            if kind == "range":
                got, _ = engine.range_search(query, param)
                params = {"epsilon": param}
            else:
                got, _ = engine.knn(query, param)
                params = {"k": param}
            records.append({
                "schema": 1, "query_id": f"q{i}-{kind}", "kind": kind,
                "params": params,
                "query": [float(v) for v in query],
                "results": [[item, float(dist)] for item, dist in got],
            })
    return records


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_replay_parity_exact(corpus, queries, backend, shards):
    """Recorded single-engine answers replay bit-exactly through a
    sharded fleet, from one caller and from several at once, on both
    kernels."""
    engine = _engine(corpus, backend)
    records = _records(engine, queries)
    routers = []

    def factory(name):
        router = ShardRouter.from_engine(_engine(corpus, name),
                                         shards=shards)
        routers.append(router)
        return router

    try:
        report = replay_workload(factory, records, backends=(backend,),
                                 modes=("serial", "concurrent"), workers=4,
                                 atol=0.0)
    finally:
        for router in routers:
            router.close()
    assert report.ok, report.summary()
    # 5 queries x 2 kinds x 2 modes on one backend.
    assert len(report.checks) == len(records) * 2


def test_digests_agree_across_shard_counts(corpus, queries):
    """The same request digests identically at every fleet width."""
    engine = _engine(corpus, None)
    digests = {}
    for shards in SHARD_COUNTS:
        with ShardRouter.from_engine(engine, shards=shards) as router:
            for i, query in enumerate(queries):
                knn, _ = router.knn(query, 5)
                rng_results, _ = router.range_search(query, 6.0)
                digests.setdefault(("knn", i), set()).add(result_digest(knn))
                digests.setdefault(("range", i), set()).add(
                    result_digest(rng_results))
    for key, seen in digests.items():
        assert len(seen) == 1, f"{key} digests diverged across shard counts"

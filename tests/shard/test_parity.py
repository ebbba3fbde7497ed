"""Cross-shard parity suite: 1 vs N shards, byte-identical, every path.

The acceptance bar for the shard tier is the serving layer's, one
level down: partitioning must never change what the engine computes.
This suite drives the combinations that could disagree — the DTW
kernel that computed the recorded answer (the engine's batch or an
exhaustive scan by the single-pair row loop) x request kind (range/knn)
x callers (one thread / several at once) x shard count: the recorded
answer and every sharded answer must match to the last float bit,
order included.
"""

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.serve.loadgen import result_digest
from repro.shard import ShardRouter

from tests.conftest import KERNEL_NAMES, exact_answer, run_concurrently

SHARD_COUNTS = (1, 2, 3)


@pytest.fixture(scope="module")
def corpus():
    return random_walks(36, 48, seed=91)


@pytest.fixture(scope="module")
def queries(corpus):
    rng = np.random.default_rng(92)
    return [corpus[i * 3] + 0.12 * rng.normal(size=corpus.shape[1])
            for i in range(5)]


def _engine(corpus):
    return QueryEngine(list(corpus), delta=0.1)


def _requests(engine, queries, kernel="vectorized"):
    """``(query, params, answer)`` per request: the ground truth.

    ``"vectorized"`` records the single engine's answers; ``"scalar"``
    records an exhaustive scan by the single-pair row loop.
    """
    requests = []
    for query in queries:
        for kind, param in (("knn", 4), ("range", 5.0)):
            params = {"epsilon" if kind == "range" else "k": param}
            if kernel == "scalar":
                got = exact_answer(engine, query, kernel, **params)
            elif kind == "range":
                got, _ = engine.range_search(query, param)
            else:
                got, _ = engine.knn(query, param)
            requests.append((query, params, list(got)))
    return requests


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_replay_parity_exact(corpus, queries, kernel, shards):
    """Recorded answers, by either kernel, come back bit-exactly from a
    sharded fleet, from one caller and from several at once."""
    engine = _engine(corpus)
    requests = _requests(engine, queries, kernel)
    want = [answer for _, _, answer in requests]

    with ShardRouter.from_engine(engine, shards=shards) as router:
        def answer(request):
            query, params, _ = request
            return list(router.search(query, **params)[0])

        serial = [answer(request) for request in requests]
        concurrent = run_concurrently(answer, requests, threads=4)
    # ids and distances by ==: the same rows, order and float bits.
    assert serial == want
    assert concurrent == want


def test_digests_agree_across_shard_counts(corpus, queries):
    """The same request digests identically at every fleet width."""
    engine = _engine(corpus)
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

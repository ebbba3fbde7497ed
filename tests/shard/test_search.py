"""One query kind: the same answer order and the same validation on
every route.

``QueryEngine.search`` and ``ShardRouter.search`` run every query —
``range_search`` / ``knn`` are spellings of it — and
``QueryEngine.ground_truth`` is the brute-force oracle.  All of them
must list tied answers identically, in (distance, corpus row) order, and
reject exactly the same malformed ``(k, epsilon)``.
"""

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.shard import ShardRouter

COPIES = 3
DISTINCT = 30
K_VALUES = (1, 2, 4, 5)


@pytest.fixture(scope="module")
def twins():
    """Every row stored 3 times, the copies a third of the corpus apart
    (so with 2 or 3 shards they live in different shards)."""
    return np.vstack([random_walks(DISTINCT, 40, seed=17)] * COPIES)


@pytest.fixture(scope="module")
def engine(twins):
    return QueryEngine(twins, band=3)


@pytest.fixture(scope="module")
def routers(engine):
    fleet = [ShardRouter.from_engine(engine, shards=n) for n in (1, 2, 3)]
    yield fleet
    for router in fleet:
        router.close()


@pytest.fixture(scope="module")
def hums(twins):
    rng = np.random.default_rng(18)
    return [twins[i] + 0.3 * rng.normal(size=twins.shape[1])
            for i in range(0, DISTINCT, 3)]


def _ids(results):
    return [item for item, _ in results]


def test_tied_knn_ids_agree_on_every_route(engine, routers, hums):
    for hum in hums:
        for k in K_VALUES:
            want = _ids(engine.ground_truth(hum, k=k))
            routes = [engine.search(hum, k=k)[0], engine.knn(hum, k)[0]]
            for router in routers:
                routes += [router.search(hum, k=k)[0], router.knn(hum, k)[0]]
            for got in routes:
                assert _ids(got) == want
            # The ties are real: every answer's copies share its distance.
            if k >= COPIES:
                dists = [d for _, d in engine.ground_truth(hum, k=k)]
                assert dists[0] == dists[COPIES - 1]


def test_tied_range_ids_agree_on_every_route(engine, routers, hums):
    for hum in hums:
        nearest = engine.ground_truth(hum, k=2 * COPIES)
        for epsilon in (nearest[COPIES - 1][1] + 1e-9,
                        nearest[-1][1] + 1e-9):
            want = _ids(engine.ground_truth(hum, epsilon=epsilon))
            assert len(want) >= COPIES
            routes = [engine.search(hum, epsilon=epsilon)[0],
                      engine.range_search(hum, epsilon)[0]]
            for router in routers:
                routes += [router.search(hum, epsilon=epsilon)[0],
                           router.range_search(hum, epsilon)[0]]
            for got in routes:
                assert _ids(got) == want


@pytest.fixture(scope="module", params=["engine", "router2"])
def route(request, engine, routers):
    return engine if request.param == "engine" else routers[1]


@pytest.mark.parametrize("params", [
    {"epsilon": float("nan")},
    {"epsilon": -1.0},
    {"k": 0},
    {"k": 2.5},
    {"k": True},
    {},
], ids=["eps-nan", "eps-negative", "k-zero", "k-float", "k-bool", "neither"])
def test_bad_parameters_raise_value_error(route, hums, params):
    with pytest.raises(ValueError):
        route.search(hums[0], **params)


def test_accepted_parameter_forms(route, engine, hums):
    """NumPy integers are integers, and an infinite epsilon is a
    legal (unbounded) radius."""
    want = _ids(engine.ground_truth(hums[0], k=3))
    assert _ids(route.search(hums[0], k=np.int64(3))[0]) == want
    assert _ids(route.search(hums[0], k=3, epsilon=np.inf)[0]) == want

"""Thread oracle: concurrent queries answer exactly what a serial scan does.

Eight threads send interleaved k-NN and range queries, half through
one :class:`~repro.serve.QBHService` (whose dispatchers, one per CPU,
run them side by side) and half directly on the same float32
store-backed engine.  Every answer must equal the engine's unfiltered
``ground_truth`` scan, ids and distances, by ``==``.  Run under both
kernel bodies: the native refine releases the interpreter lock, the
NumPy one holds it differently.
"""

import sys

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.datasets.generators import random_walks
from repro.index.gemini import WarpingIndex
from repro.ingest import StreamingIndexBuilder
from repro.serve import QBHService

from tests.conftest import run_concurrently

ROWS, LENGTH, QUERIES = 600, 64, 48


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("thread_oracle") / "store")
    walks = random_walks(ROWS, LENGTH, seed=53)
    store, _ = StreamingIndexBuilder(
        root, normal_form=NormalForm(length=LENGTH),
    ).build(list(walks), [f"m{i}" for i in range(ROWS)])
    return WarpingIndex.from_store(store)


@pytest.fixture(scope="module")
def requests(index):
    """``(route, kind, raw query, param, exact answer)`` per request,
    alternating route and kind."""
    engine = index.engine()
    rng = np.random.default_rng(54)
    walks = random_walks(ROWS, LENGTH, seed=53)
    out = []
    for i in range(QUERIES):
        raw = walks[rng.integers(ROWS)] + 0.3 * rng.normal(size=LENGTH)
        query = index.normal_form.apply(raw)
        route = ("service", "engine")[i % 2]
        if i // 2 % 2 == 0:
            kind, param = "knn", 5
            want = engine.ground_truth(query, k=param)
        else:
            # A radius with a handful of answers: the 4th-NN distance.
            kind, param = "range", engine.ground_truth(query, k=4)[-1][1]
            want = engine.ground_truth(query, epsilon=param)
        out.append((route, kind, raw, param, want))
    return out


def test_concurrent_answers_equal_the_serial_oracle(index, requests):
    engine = index.engine()
    service = QBHService.from_index(index, cache_size=0)

    def answer(request):
        route, kind, raw, param, _ = request
        if route == "service":
            outcome = (service.knn(raw, param) if kind == "knn"
                       else service.range_search(raw, param))
            assert outcome.ok, (outcome.status, outcome.error)
            return list(outcome.results)
        query = index.normal_form.apply(raw)
        results, _ = (engine.knn(query, param) if kind == "knn"
                      else engine.range_search(query, param))
        return [(item, float(dist)) for item, dist in results]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        got = run_concurrently(answer, requests, threads=8)
        executed = service.saturation()["executed"]
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert executed == QUERIES // 2
    for (_, kind, _, _, want), answer_ in zip(requests, got):
        assert answer_ == want, kind

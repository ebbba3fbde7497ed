"""Live serving across ingest-triggered generation swaps.

The zero-downtime acceptance contract: a :class:`QBHService` over a
store-backed index keeps serving byte-identical answers across at
least three generation swaps, the versioned result cache is
invalidated exactly once per swap, and no request is dropped.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.index.gemini import WarpingIndex
from repro.ingest import IngestCoordinator, IngestQueue, StreamingIndexBuilder
from repro.serve import QBHService
from repro.shard import RouterClosed
from repro.store import CorpusStore


def _walk(seed, length=110):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=length))


def test_three_swaps_byte_identical_cache_invalidated_once(tmp_path):
    root = str(tmp_path / "store")
    builder = StreamingIndexBuilder(root, normal_form=NormalForm(length=64))
    store, _ = builder.build([_walk(i) for i in range(20)],
                             [f"m{i}" for i in range(20)])
    live = WarpingIndex.from_store(store)
    queue = IngestQueue()
    service = QBHService.from_index(live)
    coordinator = IngestCoordinator(live, queue, min_batch=100)
    service.attach_ingest(coordinator)
    hums = [_walk(1000 + i) for i in range(3)]
    try:
        for swap in range(3):
            # warm the cache: second identical request must hit
            before = service.saturation()
            for hum in hums:
                assert service.knn(hum, 3).ok
            warm = [service.knn(hum, 3) for hum in hums]
            assert all(outcome.from_cache for outcome in warm), (
                "repeat requests must be served from the cache"
            )
            swaps = live.generation
            for j in range(2):
                queue.add(f"s{swap}_{j}", _walk(2000 + 10 * swap + j))
            assert coordinator.rebuild_now() is not None
            assert live.generation == swaps + 1, (
                "one swap must bump the version exactly once"
            )
            # first post-swap request recomputes (stale version evicted),
            # and is byte-identical to a fresh index on the new generation
            reference = WarpingIndex.from_store(CorpusStore.open(root))
            for hum in hums:
                outcome = service.knn(hum, 3)
                assert outcome.ok and not outcome.from_cache, (
                    "the swap must invalidate cached answers"
                )
                expected, _ = reference.cascade_knn_query(hum, 3)
                assert outcome.results == tuple(
                    (item, float(dist)) for item, dist in expected
                )
                # ...and exactly once: the recomputed answer caches again
                assert service.knn(hum, 3).from_cache
            after = service.saturation()
            assert after["error"] == before["error"] == 0
            assert after["shed"] == 0
            snapshot = after["ingest"]
            assert snapshot["rebuilds_total"] == swap + 1
            assert snapshot["failures_total"] == 0
    finally:
        service.close()
    assert not coordinator.running


def test_the_tree_is_built_by_the_first_tree_query_of_a_generation(
        tmp_path, bulk_loads):
    """Opening and swapping build no feature index; the first tree query
    of a generation builds it once, over that generation's rows."""
    root = str(tmp_path / "store")
    builder = StreamingIndexBuilder(root, normal_form=NormalForm(length=64))
    first, _ = builder.build([_walk(i) for i in range(30)],
                             [f"m{i}" for i in range(30)])
    second, _ = StreamingIndexBuilder.for_store(first).build(
        [_walk(100 + i) for i in range(10)], [f"n{i}" for i in range(10)],
        base=first,
    )
    live = WarpingIndex.from_store(first)
    assert bulk_loads == []
    hum = _walk(1000)
    assert live.cascade_knn_query(hum, 3)[0]
    assert bulk_loads == []
    live.range_query(hum, 30.0)
    live.knn_query(hum, 3)
    assert len(bulk_loads) == 1
    live.swap_generation(second)
    assert len(bulk_loads) == 1
    fresh = WarpingIndex.from_store(CorpusStore.open(root))
    for epsilon in (5.0, 30.0):
        assert live.range_query(hum, epsilon)[0] == fresh.range_query(
            hum, epsilon)[0]
        assert live.filter_query(hum, epsilon)[0] == fresh.filter_query(
            hum, epsilon)[0]
    assert live.knn_query(hum, 5)[0] == fresh.knn_query(hum, 5)[0]
    assert any(item.startswith("n") for item, _ in
               live.range_query(hum, 1e9)[0])
    assert len(bulk_loads) == 3  # one per index per generation


def test_concurrent_first_tree_queries_build_one_tree(tmp_path, bulk_loads):
    """Threads racing to the first tree query share one build."""
    root = str(tmp_path / "store")
    builder = StreamingIndexBuilder(root, normal_form=NormalForm(length=64))
    store, _ = builder.build([_walk(i) for i in range(200)],
                             [f"m{i}" for i in range(200)])
    live = WarpingIndex.from_store(store)
    hum = _walk(1000)
    expected = WarpingIndex.from_store(store).filter_query(hum, 20.0)[0]
    bulk_loads.clear()
    answers = []
    threads = [threading.Thread(
        target=lambda: answers.append(live.filter_query(hum, 20.0)[0]))
        for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(bulk_loads) == 1
    assert len(answers) == 6
    assert all(sorted(answer) == sorted(expected) for answer in answers)


def test_engines_built_during_swaps_never_mix_generations(tmp_path):
    """``engine()`` racing ``swap_generation`` gets one generation's
    rows, ids and envelope columns (the engine rejects a mismatch)."""
    root = str(tmp_path / "store")
    builder = StreamingIndexBuilder(root, normal_form=NormalForm(length=64))
    first, _ = builder.build([_walk(i) for i in range(30)],
                             [f"m{i}" for i in range(30)])
    second, _ = StreamingIndexBuilder.for_store(first).build(
        [_walk(100 + i) for i in range(10)], [f"n{i}" for i in range(10)],
        base=first,
    )
    live = WarpingIndex.from_store(first)
    stop = threading.Event()

    def swapper():
        turn = 0
        while not stop.is_set():
            live.swap_generation((second, first)[turn % 2])
            turn += 1

    thread = threading.Thread(target=swapper)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread.start()
        for _ in range(300):
            live._engines.clear()
            engine = live.engine()
            assert len(engine) in (first.rows, second.rows)
            assert engine._envelopes[0].shape == engine._data.shape
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()


def test_tree_routes_racing_swaps_read_one_generation(tmp_path):
    """A tree-route query racing ``swap_generation`` maps its candidate
    ids through the id map of the generation its feature index belongs
    to: no exception, and every answer is one generation's answer."""
    root = str(tmp_path / "store")
    builder = StreamingIndexBuilder(root, normal_form=NormalForm(length=64))
    first, _ = builder.build([_walk(i) for i in range(30)],
                             [f"m{i}" for i in range(30)])
    second, _ = StreamingIndexBuilder.for_store(first).build(
        [_walk(100 + i) for i in range(10)], [f"n{i}" for i in range(10)],
        base=first,
    )
    assert (first.rows, second.rows) == (30, 40)
    hum = _walk(1000)
    fresh = [WarpingIndex.from_store(store).range_query(hum, 1e9)[0]
             for store in (first, second)]
    live = WarpingIndex.from_store(first)
    stop = threading.Event()

    def swapper():
        turn = 1
        while not stop.is_set():
            live.swap_generation((first, second)[turn % 2])
            turn += 1

    thread = threading.Thread(target=swapper)
    errors, wrong = [], 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        for _ in range(2000):
            try:
                answer = live.range_query(hum, 1e9)[0]
            except Exception as exc:  # noqa: BLE001 - counted, then failed
                errors.append(type(exc).__name__)
                continue
            wrong += answer not in fresh
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert errors == []
    assert wrong == 0


def test_readers_racing_swaps_read_one_generation(generation_pool):
    """``explain``, ``normalized`` and the ground-truth oracles racing
    ``swap_generation`` read one generation's id map, rows, features
    and ids: no exception, and every answer is one generation's answer.
    The two stores hold 24 and 32 rows under overlapping ids, so a mixed
    read indexes past the smaller one or pairs an id with another
    generation's row."""
    first, second = generation_pool[0], generation_pool[2]
    hum = _walk(1000, length=80)
    item = "m20"

    def answers(index):
        return (index.explain(hum, item),
                index.normalized(item).tolist(),
                index.ground_truth_range(hum, 1e9),
                index.ground_truth_knn(hum, 3))

    fresh = [answers(WarpingIndex.from_store(store))
             for store in (first, second)]
    assert fresh[0] != fresh[1]
    live = WarpingIndex.from_store(first)
    stop = threading.Event()

    def swapper():
        turn = 1
        while not stop.is_set():
            live.swap_generation((first, second)[turn % 2])
            turn += 1

    thread = threading.Thread(target=swapper)
    errors, wrong = [], 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        for _ in range(500):
            got = []
            for position, read in enumerate((
                    lambda: live.explain(hum, item),
                    lambda: live.normalized(item).tolist(),
                    lambda: live.ground_truth_range(hum, 1e9),
                    lambda: live.ground_truth_knn(hum, 3))):
                try:
                    answer = read()
                except Exception as exc:  # noqa: BLE001 - counted, then failed
                    errors.append(type(exc).__name__)
                    continue
                wrong += answer not in (fresh[0][position],
                                        fresh[1][position])
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert errors == []
    assert wrong == 0


def test_router_closed_is_retried_exactly_once():
    """The serve layer refetches the engine when a swap closed its router."""

    class GoodEngine:
        def search(self, query, *, k=None, epsilon=None, should_abort=None):
            return ((("m0", 1.0),), None)

    class ClosingEngine:
        def __init__(self):
            self.calls = 0

        def search(self, query, *, k=None, epsilon=None, should_abort=None):
            self.calls += 1
            raise RouterClosed("router is closed")

    closing = ClosingEngine()
    engines = [closing, GoodEngine()]
    versions = iter(range(100))
    service = QBHService(lambda: engines.pop(0),
                         version_fn=lambda: next(versions))
    try:
        outcome = service.knn(np.zeros(8), 1)
        assert outcome.ok
        assert outcome.results == (("m0", 1.0),)
        assert closing.calls == 1
    finally:
        service.close()


def test_router_closed_twice_is_an_error():
    class AlwaysClosed:
        def search(self, query, *, k=None, epsilon=None, should_abort=None):
            raise RouterClosed("router is closed")

    service = QBHService(lambda: AlwaysClosed(),
                         version_fn=lambda: 0)
    try:
        outcome = service.knn(np.zeros(8), 1)
        assert outcome.status == "error"
        assert "RouterClosed" in outcome.error
    finally:
        service.close()


def test_attach_ingest_rejects_double_attach(tmp_path):
    root = str(tmp_path / "store")
    builder = StreamingIndexBuilder(root, normal_form=NormalForm(length=64))
    store, _ = builder.build([_walk(i) for i in range(5)],
                             [f"m{i}" for i in range(5)])
    live = WarpingIndex.from_store(store)
    service = QBHService.from_index(live)
    coordinator = IngestCoordinator(live, IngestQueue())
    try:
        service.attach_ingest(coordinator)
        with pytest.raises(RuntimeError, match="already attached"):
            service.attach_ingest(IngestCoordinator(live, IngestQueue()))
        assert "ingest" in service.saturation()
    finally:
        service.close()

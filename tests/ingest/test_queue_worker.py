"""Ingest staging queue and background rebuild coordinator."""

import threading

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.index.gemini import WarpingIndex
from repro.ingest import (
    IngestCoordinator,
    IngestError,
    IngestQueue,
    StreamingIndexBuilder,
)


def _walk(seed, length=100):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=length))


@pytest.fixture
def live_index(tmp_path):
    builder = StreamingIndexBuilder(str(tmp_path / "store"),
                                    normal_form=NormalForm(length=64))
    store, _ = builder.build([_walk(i) for i in range(12)],
                             [f"m{i}" for i in range(12)])
    return WarpingIndex.from_store(store)


class TestIngestQueue:
    def test_add_drain_counts(self):
        queue = IngestQueue()
        assert queue.add("a", _walk(1)) == 1
        assert queue.add("b", _walk(2)) == 2
        assert queue.pending == 2
        batch = queue.drain()
        assert [item_id for item_id, _ in batch] == ["a", "b"]
        assert queue.pending == 0
        assert queue.accepted_total == 2

    def test_validation(self):
        queue = IngestQueue()
        with pytest.raises(ValueError):
            queue.add("bad", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            queue.add("short", np.zeros(1))

    def test_max_pending_overflow(self):
        queue = IngestQueue(max_pending=2)
        queue.add("a", _walk(1))
        queue.add("b", _walk(2))
        with pytest.raises(OverflowError):
            queue.add("c", _walk(3))
        queue.drain()
        queue.add("c", _walk(3))  # capacity freed

    def test_wait_for_items_wakes_on_add(self):
        queue = IngestQueue()
        seen = []

        def waiter():
            seen.append(queue.wait_for_items(5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        queue.add("a", _walk(1))
        thread.join(timeout=5.0)
        assert seen == [True]


class TestIngestCoordinator:
    def test_requires_store_backed_index(self):
        in_memory = WarpingIndex([_walk(i) for i in range(3)], delta=0.1)
        with pytest.raises(IngestError, match="store-backed"):
            IngestCoordinator(in_memory, IngestQueue())

    def test_rebuild_now_swaps_and_accounts(self, live_index):
        queue = IngestQueue()
        coordinator = IngestCoordinator(live_index, queue, min_batch=10)
        generation = live_index.store.generation
        swaps = live_index.generation
        queue.add("new0", _walk(100))
        queue.add("new1", _walk(101))
        report = coordinator.rebuild_now()
        assert report is not None
        assert live_index.store.generation == generation + 1
        assert live_index.generation == swaps + 1
        assert "new0" in live_index.ids and "new1" in live_index.ids
        snapshot = coordinator.snapshot()
        assert snapshot["rebuilds_total"] == 1
        assert snapshot["rows_ingested_total"] == 2
        assert snapshot["failures_total"] == 0
        assert snapshot["pending"] == 0

    def test_background_rebuild_on_min_batch(self, live_index):
        queue = IngestQueue()
        with IngestCoordinator(live_index, queue, min_batch=2,
                               poll_interval_s=0.01) as coordinator:
            generation = live_index.store.generation
            queue.add("bg0", _walk(200))
            queue.add("bg1", _walk(201))
            deadline = threading.Event()
            for _ in range(500):
                if live_index.store.generation != generation:
                    break
                deadline.wait(0.02)
            assert live_index.store.generation == generation + 1
            assert coordinator.snapshot()["rebuilds_total"] == 1

    def test_failed_batch_is_isolated(self, live_index):
        queue = IngestQueue()
        coordinator = IngestCoordinator(live_index, queue)
        generation = live_index.store.generation
        swaps = live_index.generation
        queue.add("m0", _walk(1))  # duplicate id: the build must fail
        assert coordinator.rebuild_now() is None
        assert live_index.store.generation == generation  # untouched
        assert live_index.generation == swaps
        snapshot = coordinator.snapshot()
        assert snapshot["failures_total"] == 1
        assert "duplicate id" in snapshot["last_error"]
        # the next good batch still lands
        queue.add("fresh", _walk(300))
        assert coordinator.rebuild_now() is not None
        assert coordinator.snapshot()["rebuilds_total"] == 1

    def test_close_drains_pending(self, live_index):
        queue = IngestQueue()
        coordinator = IngestCoordinator(live_index, queue,
                                        min_batch=50).start()
        generation = live_index.store.generation
        queue.add("tail", _walk(400))
        coordinator.close(drain=True)
        assert live_index.store.generation == generation + 1
        assert "tail" in live_index.ids
        assert not coordinator.running

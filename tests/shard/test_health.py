"""Per-shard health telemetry: pings, snapshots, and the heartbeat.

The router's health probe shares the worker pipes with fan-outs (and
the lock that serializes them), so these tests exercise the whole
surface against real worker processes: RTT and RSS from the extended
pong, lifecycle fields surviving a crash → respawn, the lock-free
:meth:`health_snapshot` read, the background
:class:`ShardHealthMonitor` heartbeat, manager delegation, the
``shard.health.*`` gauges, and the serving facade's ``shards``
saturation section.
"""

import time

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.index.gemini import WarpingIndex
from repro.obs import Observability
from repro.serve import QBHService
from repro.shard import (
    IndexShardManager,
    ShardHealth,
    ShardHealthMonitor,
    ShardRouter,
    read_rss_bytes,
)


@pytest.fixture
def corpus():
    return random_walks(24, 40, seed=401)


@pytest.fixture
def reference(corpus):
    return QueryEngine(list(corpus), delta=0.1)


@pytest.fixture
def query(corpus):
    rng = np.random.default_rng(402)
    return corpus[5] + 0.1 * rng.normal(size=corpus.shape[1])


def test_read_rss_bytes_reads_this_process():
    rss = read_rss_bytes()
    assert rss is not None
    assert rss > 1_000_000          # a python process is at least a few MB


def test_read_rss_bytes_tolerates_dead_pid():
    assert read_rss_bytes(2 ** 22 + 12345) is None


class TestRouterPing:
    def test_ping_fills_rtt_rss_and_identity(self, reference):
        with ShardRouter.from_engine(reference, shards=3) as router:
            rows = router.ping(timeout_s=5.0)
        assert len(rows) == 3
        assert [row.shard for row in rows] == [0, 1, 2]
        for row in rows:
            assert isinstance(row, ShardHealth)
            assert row.alive
            assert row.epoch == 0
            assert row.respawns == 0
            assert row.ping_rtt_s is not None and row.ping_rtt_s > 0
            assert row.rss_bytes is not None and row.rss_bytes > 1_000_000
            assert row.uptime_s >= 0

    def test_ping_counts_served_requests(self, reference, query):
        with ShardRouter.from_engine(reference, shards=2) as router:
            router.knn(query, 3)
            router.knn(query, 3)
            rows = router.ping(timeout_s=5.0)
        # 2 fan-outs + the ping itself per worker
        assert all(row.requests == 2 for row in rows)
        assert all(row.last_reply_age_s is not None for row in rows)

    def test_crash_and_respawn_show_in_health(self, reference, query):
        with ShardRouter.from_engine(reference, shards=2) as router:
            router._shards[1].conn.send(("crash", True))
            router._shards[1].process.join(timeout=10.0)
            rows = {row.shard: row for row in router.health_snapshot()}
            assert rows[1].alive is False       # dead, not yet respawned
            router.knn(query, 3)                # query path respawns
            rows = {row.shard: row for row in router.ping(timeout_s=5.0)}
        assert rows[0].epoch == 0 and rows[0].respawns == 0
        assert rows[1].epoch == 1 and rows[1].respawns == 1
        assert rows[1].alive

    def test_snapshot_is_lock_free_and_cheap(self, reference):
        """health_snapshot never touches the pipes — rows come from
        serving side-effects alone (no RTT until someone pings)."""
        with ShardRouter.from_engine(reference, shards=2) as router:
            rows = router.health_snapshot()
            assert len(rows) == 2
            assert all(row.ping_rtt_s is None for row in rows)
            assert all(row.alive for row in rows)

    def test_ping_after_close_reports_dead_fleet(self, reference):
        router = ShardRouter.from_engine(reference, shards=2)
        router.close()
        rows = router.ping()
        assert all(row.alive is False for row in rows)

    def test_health_rows_are_json_ready(self, reference):
        import json

        with ShardRouter.from_engine(reference, shards=2) as router:
            rows = router.ping(timeout_s=5.0)
        for row in rows:
            doc = row.to_dict()
            assert doc["shard"] == row.shard
            json.dumps(doc)


class TestHealthGauges:
    def test_ping_records_labelled_gauges(self, reference):
        obs = Observability()
        with ShardRouter.from_engine(reference, shards=2,
                                     obs=obs) as router:
            router.ping(timeout_s=5.0)
        gauges = obs.metrics.snapshot()["gauges"]
        for shard in (0, 1):
            assert gauges[f"shard.health.alive{{shard={shard}}}"] == 1
            assert gauges[f"shard.health.epoch{{shard={shard}}}"] == 0
            assert gauges[f"shard.health.rss_bytes{{shard={shard}}}"] > 0
            assert gauges[
                f"shard.health.ping_rtt_seconds{{shard={shard}}}"] > 0

    def test_respawn_overwrites_stale_gauges(self, reference, query):
        """A respawned worker's gauges replace its predecessor's — the
        old epoch must not survive as a parallel labelled row."""
        obs = Observability()
        with ShardRouter.from_engine(reference, shards=2,
                                     obs=obs) as router:
            router.ping(timeout_s=5.0)           # epoch-0 gauges exist
            router._shards[1].conn.send(("crash", True))
            router._shards[1].process.join(timeout=10.0)
            router.knn(query, 3)                 # query path respawns
            router.ping(timeout_s=5.0)
        gauges = obs.metrics.snapshot()["gauges"]
        epoch_rows = sorted(name for name in gauges
                            if name.startswith("shard.health.epoch"))
        # One row per shard — the label is the shard id, never the
        # epoch, so the dead worker cannot leave a stale series.
        assert epoch_rows == ["shard.health.epoch{shard=0}",
                              "shard.health.epoch{shard=1}"]
        assert gauges["shard.health.epoch{shard=0}"] == 0
        assert gauges["shard.health.epoch{shard=1}"] == 1
        assert gauges["shard.health.alive{shard=1}"] == 1
        assert gauges["shard.health.respawns{shard=1}"] == 1


class TestMonitor:
    def test_heartbeat_beats_and_keeps_the_latest(self, reference):
        with ShardRouter.from_engine(reference, shards=2) as router:
            monitor = ShardHealthMonitor(router, interval_s=0.05,
                                         ping_timeout_s=5.0)
            try:
                monitor.start()
                deadline = time.monotonic() + 10.0
                while monitor.beats < 2 and time.monotonic() < deadline:
                    time.sleep(0.02)
            finally:
                monitor.close()
            assert monitor.beats >= 2
            assert {row.shard for row in monitor.latest} == {0, 1}

    def test_monitor_survives_a_closed_source(self, reference):
        router = ShardRouter.from_engine(reference, shards=2)
        router.close()
        monitor = ShardHealthMonitor(router, interval_s=0.05)
        monitor.start()
        try:
            assert monitor.beat_once() is not None   # never raises
        finally:
            monitor.close()


class TestManagerDelegation:
    @pytest.fixture
    def manager(self, corpus):
        index = WarpingIndex(list(corpus), delta=0.1)
        manager = IndexShardManager(index, shards=2)
        yield manager
        manager.close()

    def test_manager_before_first_build_is_empty(self, manager):
        assert manager.health_snapshot() == []
        assert manager.ping() == []

    def test_manager_delegates_to_current_router(self, manager, query):
        manager.router()                 # force the first build
        rows = manager.ping(timeout_s=5.0)
        assert {row.shard for row in rows} == {0, 1}
        assert all(row.alive for row in rows)
        assert len(manager.health_snapshot()) == 2


class TestServiceHealth:
    def test_saturation_reports_shard_rows_when_owned(self, reference,
                                                      query):
        service = QBHService.from_engine(reference, shards=2)
        try:
            assert service.knn(query, 3).ok
            snapshot = service.saturation()
        finally:
            service.close()
        rows = snapshot["shards"]
        assert {row["shard"] for row in rows} == {0, 1}
        assert all(row["alive"] for row in rows)

    def test_respawned_worker_does_not_leave_stale_row(self, reference,
                                                       query):
        """saturation()['shards'] after a crash → respawn holds exactly
        one row per shard, at the new epoch — no old-epoch leftovers."""
        service = QBHService.from_engine(reference, shards=2, cache_size=0)
        try:
            assert service.knn(query, 3).ok
            router = service._owned_shards
            router._shards[1].conn.send(("crash", True))
            router._shards[1].process.join(timeout=10.0)
            assert service.knn(query, 3).ok      # respawns shard 1
            router.ping(timeout_s=5.0)
            rows = service.saturation()["shards"]
        finally:
            service.close()
        assert sorted(row["shard"] for row in rows) == [0, 1]
        by_shard = {row["shard"]: row for row in rows}
        assert by_shard[0]["epoch"] == 0
        assert by_shard[0]["respawns"] == 0
        assert by_shard[1]["epoch"] == 1
        assert by_shard[1]["respawns"] == 1
        assert by_shard[1]["alive"]

    def test_unsharded_service_has_no_shards_section(self, reference,
                                                     query):
        service = QBHService.from_engine(reference)
        try:
            assert service.knn(query, 3).ok
            assert "shards" not in service.saturation()
        finally:
            service.close()

    def test_health_interval_starts_and_stops_the_heartbeat(
            self, reference, query):
        service = QBHService.from_engine(reference, shards=2,
                                         health_interval_s=0.05)
        try:
            monitor = service._health_monitor
            assert monitor is not None
            deadline = time.monotonic() + 10.0
            while monitor.beats < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert monitor.beats >= 1
            rows = service.saturation()["shards"]
            assert any(row["ping_rtt_s"] is not None for row in rows)
        finally:
            service.close()
        assert service._health_monitor is None

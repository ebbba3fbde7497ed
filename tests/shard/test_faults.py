"""Fault injection: workers die, answers don't.

The router's failure contract — respawn from the pickled spec, retry
the in-flight request once, raise a typed :class:`ShardError` on a
second crash — is exercised here with the worker protocol's ``crash``
message (die immediately, or die on the *next* request: the
mid-request crash a load test can't schedule deterministically).  A
kill must never yield a lost or wrong answer: every outcome is either
a byte-correct result or a typed error.
"""

import dataclasses

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.serve.loadgen import result_digest
from repro.shard import ShardError, ShardRouter


@pytest.fixture
def corpus():
    return random_walks(30, 40, seed=101)


@pytest.fixture
def reference(corpus):
    return QueryEngine(list(corpus), delta=0.1)


@pytest.fixture
def query(corpus):
    rng = np.random.default_rng(102)
    return corpus[4] + 0.1 * rng.normal(size=corpus.shape[1])


def _kill_now(router, shard):
    """Crash one worker immediately and wait for it to be gone."""
    router._shards[shard].conn.send(("crash", True))
    router._shards[shard].process.join(timeout=10.0)
    assert not router._shards[shard].process.is_alive()


class TestRespawnAndRetry:
    def test_idle_kill_is_survived(self, reference, query):
        """A worker killed between requests: the next fan-out hits a
        dead pipe, respawns, retries, and answers correctly."""
        with ShardRouter.from_engine(reference, shards=3) as router:
            epoch = router.epoch
            _kill_now(router, 1)
            got, _ = router.knn(query, 5)
            assert router.epoch == epoch + 1
            want, _ = reference.knn(query, 5)
            assert result_digest(got) == result_digest(want)

    def test_mid_request_kill_is_survived(self, reference, query):
        """A worker that dies *while serving* the request: EOF at
        gather time, same respawn-and-retry, same bytes."""
        with ShardRouter.from_engine(reference, shards=3) as router:
            epoch = router.epoch
            router._shards[0].conn.send(("crash", False))  # die on next req
            got, _ = router.range_search(query, 6.0)
            assert router.epoch == epoch + 1
            want, _ = reference.range_search(query, 6.0)
            assert result_digest(got) == result_digest(want)

    def test_every_kill_bumps_the_epoch(self, reference, query):
        with ShardRouter.from_engine(reference, shards=2) as router:
            for expected in (1, 2, 3):
                _kill_now(router, 0)
                router.knn(query, 3)
                assert router.epoch == expected

    def test_respawned_worker_keeps_serving(self, reference, query):
        """The fleet is fully healthy after a crash: later requests
        need no retries and stay byte-correct."""
        with ShardRouter.from_engine(reference, shards=3) as router:
            _kill_now(router, 2)
            router.knn(query, 3)
            epoch = router.epoch
            for k in (1, 4, 7):
                got, _ = router.knn(query, k)
                want, _ = reference.knn(query, k)
                assert result_digest(got) == result_digest(want)
            assert router.epoch == epoch  # no further respawns needed


class TestDoubleCrash:
    def test_second_crash_raises_typed_error(self, reference, query):
        """A shard whose respawn also dies must surface a ShardError —
        never hang, never return a partial answer."""
        with ShardRouter.from_engine(reference, shards=2) as router:
            shard = router._shards[0]
            # Arm the running worker to die on the next request, and
            # poison the spec so the respawned worker cannot build.
            shard.conn.send(("crash", False))
            router._shards[0].spec = dataclasses.replace(
                shard.spec, data_path=shard.spec.data_path + ".gone"
            )
            with pytest.raises(ShardError, match="twice"):
                router.knn(query, 3)

    def test_bad_query_is_rejected_before_fanout(self, reference):
        """Router-side validation: a malformed query never reaches the
        workers (the fleet stays clean for the next request)."""
        with ShardRouter.from_engine(reference, shards=2) as router:
            with pytest.raises(ValueError, match="length"):
                router.knn(np.zeros(7), 3)


class TestWorkerProtocol:
    def test_worker_error_reply_is_typed(self, reference):
        """Speaking the pipe protocol directly: a request the engine
        rejects comes back as a typed ``error`` reply (which the
        router surfaces as ShardError), never a crash or a hang."""
        with ShardRouter.from_engine(reference, shards=2) as router:
            conn = router._shards[0].conn
            query = np.zeros(router.series_length)
            conn.send(("req", 12345, "knn", query, 0, None, False))
            reply = conn.recv()
            assert reply[:3] == ("error", 12345, "ValueError")

    def test_ping_pong(self, reference):
        with ShardRouter.from_engine(reference, shards=2) as router:
            conn = router._shards[1].conn
            conn.send(("ping", 7))
            assert conn.recv() == ("pong", 7)

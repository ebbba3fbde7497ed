"""Per-shard health: snapshots, RSS probing, and the heartbeat thread.

The router already *has* most of the health signal — respawn counts,
request counts, reply timestamps — as side effects of serving; this
module gives it a shape.  :class:`ShardHealth` is one worker's
snapshot row; :func:`read_rss_bytes` reads a process's resident set
from ``/proc`` (``None`` where the platform has no procfs — health
stays useful, just without memory); :class:`ShardHealthMonitor` is the
background heartbeat that calls :meth:`ShardRouter.ping` on an
interval so RTT, RSS, and liveness stay fresh even when no queries
flow.

Snapshots (:meth:`ShardRouter.health_snapshot`) are lock-free racy
reads of router-side fields — safe because each field is written
atomically under the GIL and a health row is advisory, not a
linearizable view.  Pings, by contrast, take the router lock: they
share the pipes with fan-outs and must not interleave with one.

Everything here surfaces in two places: ``shard.health.*`` gauges
(labelled per shard) and :meth:`QBHService.saturation`'s ``"shards"``
section.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass

__all__ = ["ShardHealth", "ShardHealthMonitor", "read_rss_bytes"]


@dataclass
class ShardHealth:
    """One worker process's health row at a point in time.

    ``ping_rtt_s``, ``rss_bytes``, and ``last_reply_age_s`` are
    ``None`` until the first ping / reply provides them; ``alive`` is
    the parent-side :meth:`Process.is_alive` view, which can lag a
    crash by one request (the router only *learns* of a death when a
    pipe hits EOF or a ping times out).
    """

    shard: int
    epoch: int
    pid: int | None
    alive: bool
    respawns: int
    requests: int
    uptime_s: float
    last_reply_age_s: float | None = None
    ping_rtt_s: float | None = None
    rss_bytes: int | None = None

    def to_dict(self) -> dict:
        """The row as one JSON-ready dict (saturation/CLI schema)."""
        return asdict(self)


def read_rss_bytes(pid: int | None = None) -> int | None:
    """Resident-set size of *pid* (default: this process) in bytes.

    Reads ``/proc/<pid>/statm`` — no dependencies beyond :mod:`os` —
    and returns ``None`` on platforms without procfs or when the
    process is gone, so callers never branch on platform.
    """
    target = "self" if pid is None else str(int(pid))
    try:
        with open(f"/proc/{target}/statm", "rb") as handle:
            fields = handle.read().split()
        pages = int(fields[1])
        return pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        return None


class ShardHealthMonitor:
    """Background heartbeat pinging a shard fleet on an interval.

    *source* is anything with a ``ping(timeout_s=...)`` method — a
    :class:`~repro.shard.ShardRouter` or an
    :class:`~repro.shard.IndexShardManager` (which forwards to its
    current router without triggering a rebuild).  Each beat refreshes
    the router's health fields and re-publishes the ``shard.health.*``
    gauges; the latest snapshot is kept on :attr:`latest` for pull
    consumers.

    A beat that fails (router closed, fleet mid-rebuild) is swallowed:
    the monitor is best-effort by design and must never take down the
    serving path it observes.
    """

    def __init__(self, source, *, interval_s: float = 1.0,
                 ping_timeout_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self._source = source
        self.interval_s = float(interval_s)
        self.ping_timeout_s = float(ping_timeout_s)
        self.latest: list[ShardHealth] = []
        self.beats = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "ShardHealthMonitor":
        """Start the heartbeat thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-shard-health", daemon=True
            )
            self._thread.start()
        return self

    def beat_once(self) -> list[ShardHealth]:
        """One synchronous heartbeat (used by tests and ``start()``-less
        callers); failures surface as an empty snapshot."""
        try:
            snapshot = self._source.ping(timeout_s=self.ping_timeout_s)
        except Exception:
            return []
        self.latest = snapshot
        self.beats += 1
        return snapshot

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.beat_once()

    def close(self) -> None:
        """Stop the heartbeat and join the thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

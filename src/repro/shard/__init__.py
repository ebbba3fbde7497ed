"""Sharded multi-process index tier: escape the GIL for multi-core serving.

The :mod:`repro.serve` layer queues and schedules, but every DTW
still runs in one Python process — threads cannot overlap kernel time
behind the GIL.  This package partitions the corpus into N row blocks,
gives each to a persistent worker **process**, and puts an exact
merging router in front:

* :mod:`~repro.shard.spec` — :class:`EngineSpec`, the picklable
  factory-args recipe a worker rebuilds its engine from (corpus block
  mapped read-only from a file written once at startup);
* :mod:`~repro.shard.worker` — the worker-process loop: request
  messages in, exact per-shard answers + re-mergeable stats out, with
  deadlines re-anchored against the worker's own clock;
* :mod:`~repro.shard.router` — :class:`ShardRouter` (fan-out, exact
  range/k-NN merge, crash respawn with retry-once, poison-pill drain)
  and :class:`IndexShardManager` (rebuild-on-swap with a
  monotonic epoch the serving cache folds into its version).

Answers are byte-identical to a single engine over the same corpus —
the per-shard lower-bound cascade admits no false dismissals, and the
multi-step k-NN invariant makes per-shard top-k heaps merge to the
exact global top-k.  See ``docs/ARCHITECTURE.md`` ("Sharded index
tier").
"""

from .health import ShardHealth, ShardHealthMonitor, read_rss_bytes
from .router import (
    IndexShardManager,
    RouterClosed,
    ShardError,
    ShardRouter,
    resolve_mp_context,
)
from .spec import EngineSpec

__all__ = [
    "ShardRouter",
    "ShardError",
    "RouterClosed",
    "IndexShardManager",
    "EngineSpec",
    "resolve_mp_context",
    "ShardHealth",
    "ShardHealthMonitor",
    "read_rss_bytes",
]

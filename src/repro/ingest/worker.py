"""Background rebuild worker: drain the queue, build, swap, prewarm.

The coordinator owns the zero-downtime contract:

1. Drain the staging queue (producers keep adding; the index keeps
   serving — nothing here holds a lock the query path needs).
2. Build the next store generation with
   :class:`~repro.ingest.builder.StreamingIndexBuilder`, inheriting the
   live generation's segments by hard link (O(new rows) bytes written).
3. ``index.swap_generation(new_store)`` — the live
   :class:`~repro.index.WarpingIndex` rebinds its arrays and R*-tree to
   the new generation and bumps ``generation`` exactly once *last*, so
   the serve tier's versioned result cache invalidates exactly once per
   swap and in-flight queries finish against the old arrays.
4. ``shard_manager.prewarm()`` (when sharded) respawns the worker fleet
   against the new generation off the serving path, bumping the shard
   epoch once; a dispatcher that raced the swap gets one transparent
   retry from :class:`~repro.serve.QBHService`.
5. Prune store generations past ``keep_generations``.

A failed rebuild (duplicate id, malformed series) drops that batch,
records ``ingest.failures_total``, and leaves the live index untouched.
"""

from __future__ import annotations

import threading
from typing import Any

from ..obs import OBS_DISABLED, Observability
from ..obs.clock import monotonic_s
from ..store import prune_generations
from .builder import BuildReport, StreamingIndexBuilder
from .queue import IngestQueue

__all__ = ["IngestCoordinator", "IngestError"]


class IngestError(RuntimeError):
    """Raised for ingest configuration errors (not per-batch failures)."""


class IngestCoordinator:
    """Owns the rebuild thread for one live store-backed index.

    Parameters
    ----------
    index:
        A store-backed :class:`~repro.index.WarpingIndex` (built with
        ``WarpingIndex.from_store``); the coordinator swaps new
        generations into it.
    queue:
        The :class:`IngestQueue` producers stage melodies into.
    min_batch:
        Rebuild only once this many melodies are pending (amortises the
        O(corpus) R*-tree repack over bigger batches).
    poll_interval_s:
        Worker wake-up cadence while below ``min_batch``.
    memory_budget_mb:
        Staging budget handed to the incremental builder.
    shard_manager:
        Optional :class:`~repro.shard.IndexShardManager` to prewarm
        after each swap (bumps the shard epoch off the serving path).
    keep_generations:
        Store generations retained after a swap (older ones pruned).
    """

    def __init__(self, index, queue: IngestQueue, *,
                 min_batch: int = 1,
                 poll_interval_s: float = 0.05,
                 memory_budget_mb: float = 64.0,
                 shard_manager=None,
                 keep_generations: int = 2,
                 obs: Observability | None = None) -> None:
        if getattr(index, "store", None) is None:
            raise IngestError(
                "IngestCoordinator requires a store-backed index "
                "(build it with WarpingIndex.from_store); an in-memory "
                "index is immutable"
            )
        if min_batch < 1:
            raise ValueError("min_batch must be >= 1")
        if keep_generations < 1:
            raise ValueError("keep_generations must be >= 1")
        self.index = index
        self.queue = queue
        self.obs = OBS_DISABLED if obs is None else obs
        self._min_batch = min_batch
        self._poll_interval_s = poll_interval_s
        self._memory_budget_mb = memory_budget_mb
        self._shard_manager = shard_manager
        self._keep_generations = keep_generations
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._rebuild_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._state = "idle"
        self._rebuilds_total = 0
        self._failures_total = 0
        self._rows_ingested_total = 0
        self._last_rebuild_s: float | None = None
        self._last_error: str | None = None

    # -- lifecycle ---------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "IngestCoordinator":
        if self._thread is not None:
            raise IngestError("coordinator already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="ingest-coordinator", daemon=True
        )
        self._thread.start()
        return self

    def close(self, *, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop the worker; with *drain*, rebuild any leftover items."""
        self._stop.set()
        self.queue.wake()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None
        if drain and self.queue.pending:
            self._rebuild_once()

    def __enter__(self) -> "IngestCoordinator":
        return self.start() if self._thread is None else self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- rebuild -----------------------------------------------------

    def rebuild_now(self) -> BuildReport | None:
        """Synchronously rebuild whatever is pending (even < min_batch)."""
        return self._rebuild_once()

    def _rebuild_once(self) -> BuildReport | None:
        with self._rebuild_lock:
            batch = self.queue.drain()
            if not batch:
                return None
            with self._state_lock:
                self._state = "rebuilding"
            started = monotonic_s()
            try:
                store = self.index.store
                with self.obs.span(
                    "ingest:rebuild",
                    rows_before=store.rows,
                    batch=len(batch),
                    generation_before=store.generation,
                ):
                    builder = StreamingIndexBuilder.for_store(
                        store,
                        memory_budget_mb=self._memory_budget_mb,
                        obs=self.obs,
                    )
                    new_store, report = builder.build(
                        (series for _, series in batch),
                        (item_id for item_id, _ in batch),
                        base=store,
                    )
                    self.index.swap_generation(new_store)
                    if self._shard_manager is not None:
                        self._shard_manager.prewarm()
                    prune_generations(new_store.root,
                                      keep=self._keep_generations)
                duration_s = monotonic_s() - started
                rows_added = report.rows - store.rows
                with self._state_lock:
                    self._rebuilds_total += 1
                    self._rows_ingested_total += rows_added
                    self._last_rebuild_s = duration_s
                    self._last_error = None
                self.obs.record_ingest_rebuild(
                    rows_added=rows_added,
                    rows_total=report.rows,
                    generation=report.generation,
                    pending=self.queue.pending,
                    duration_s=duration_s,
                )
                return report
            except Exception as exc:  # noqa: BLE001 — batch isolation
                with self._state_lock:
                    self._failures_total += 1
                    self._last_error = f"{type(exc).__name__}: {exc}"
                self.obs.record_ingest_failure()
                return None
            finally:
                with self._state_lock:
                    self._state = "idle"

    def _run(self) -> None:
        while not self._stop.is_set():
            if not self.queue.wait_for_items(self._poll_interval_s):
                continue
            if self._stop.is_set():
                break
            if self.queue.pending < self._min_batch:
                self._stop.wait(self._poll_interval_s)
                if self.queue.pending < self._min_batch:
                    continue
            self._rebuild_once()

    # -- introspection -----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Saturation-report section: rebuild state for operators."""
        with self._state_lock:
            state = self._state
            rebuilds = self._rebuilds_total
            failures = self._failures_total
            rows = self._rows_ingested_total
            last_s = self._last_rebuild_s
            last_error = self._last_error
        return {
            "state": state,
            "pending": self.queue.pending,
            "accepted_total": self.queue.accepted_total,
            "rebuilds_total": rebuilds,
            "failures_total": failures,
            "rows_ingested_total": rows,
            "generation": self.index.store.generation,
            "rows_total": self.index.store.rows,
            "min_batch": self._min_batch,
            "last_rebuild_s": last_s,
            "last_error": last_error,
        }

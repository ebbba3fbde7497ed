"""Streaming ingest: bulk builds and zero-downtime incremental rebuilds.

Three pieces:

- :class:`StreamingIndexBuilder` — one streaming pass from raw pitch
  series to a sealed columnar-store generation (float32 columns, batched
  GEMINI feature extraction, vectorized k-envelopes) under a
  configurable memory ceiling.  10⁵–10⁶ melodies build without ever
  materialising the corpus in float64.
- :class:`IngestQueue` — thread-safe staging buffer melodies are added
  to while the index keeps serving.
- :class:`IngestCoordinator` — background worker that drains the queue,
  builds the next store generation (inheriting the previous one's
  segments by hard link), atomically swaps it into the live
  :class:`~repro.index.WarpingIndex` (one ``generation`` bump, so result
  caches invalidate exactly once), and prewarm-respawns the shard fleet.
"""

from .builder import BuildReport, StreamingIndexBuilder, batch_envelope
from .queue import IngestQueue
from .worker import IngestCoordinator, IngestError

__all__ = [
    "BuildReport",
    "IngestCoordinator",
    "IngestError",
    "IngestQueue",
    "StreamingIndexBuilder",
    "batch_envelope",
]

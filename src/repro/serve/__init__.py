"""The serving layer: concurrent query serving above the engine.

The ROADMAP's north star is a QBH service under heavy traffic; this
package is the serving discipline that takes the exact
filter-and-refine machinery (:mod:`repro.engine`,
:mod:`repro.index`) from "a library you call" to "a service that
survives load":

* :mod:`~repro.serve.scheduler` — bounded FIFO request queue and one
  dispatcher thread per usable CPU, coalescing queued duplicates into
  one execution;
* :mod:`~repro.serve.admission` — the queue cap, per-request
  deadlines (cooperatively cancelled inside the engine), deterministic
  retry/backoff for shed requests;
* :mod:`~repro.serve.cache` — LRU + TTL result cache with versioned
  invalidation on a generation swap;
* :mod:`~repro.serve.service` — :class:`QBHService`, the facade wiring
  it all together with sync/async submission and graceful shutdown;
* :mod:`~repro.serve.loadgen` — the closed-loop load generator behind
  ``repro serve``.

Everything here changes *when* and *how often* the engine runs — never
what it computes: answers are exact, deadline misses return
``deadline_exceeded`` rather than partial results, and cache hits are
byte-identical to recomputation.  See ``docs/ARCHITECTURE.md``
("Serving layer") for the queue → dispatcher → cascade picture.
"""

from .admission import AdmissionPolicy, RetryPolicy, submit_with_retry
from .cache import CacheStats, ResultCache, request_fingerprint
from .scheduler import (
    RequestScheduler,
    ServeFuture,
    ServeOutcome,
    ServeRequest,
)
from .service import QBHService

__all__ = [
    "QBHService",
    "RequestScheduler",
    "ServeRequest",
    "ServeOutcome",
    "ServeFuture",
    "AdmissionPolicy",
    "RetryPolicy",
    "submit_with_retry",
    "ResultCache",
    "CacheStats",
    "request_fingerprint",
]

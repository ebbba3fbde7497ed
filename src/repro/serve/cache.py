"""Result cache: LRU + TTL, keyed by query fingerprint and version.

Repeated hums of popular tunes are the QBH workload's defining skew —
the same few melodies arrive over and over — and recomputing the full
filter-and-refine cascade for each repeat is pure waste.  This cache
closes that loop while keeping the engine's exactness contract intact:

* **Keying** — :func:`request_fingerprint` hashes the *raw* query
  series (canonical float64 bytes) together with the request kind and
  parameter, so a hit is only possible for a byte-identical query with
  identical search parameters.  Hashing the raw series (before the
  normal form) trades a few misses — two different raw series that
  normalise identically miss each other — for a guarantee that no
  floating-point quirk of re-normalisation can alias two different
  requests onto one entry.
* **Versioned invalidation** — every entry stores the index *version*
  captured **before** the result was computed, and
  :meth:`ResultCache.get` refuses entries whose version differs from
  the caller's current one.  A generation swap racing with an
  in-flight query can therefore only waste a cache slot, never serve
  a stale answer: the stale entry's version no longer matches and the
  next probe recomputes.  The version is any equatable value, not
  necessarily an int: a plain engine pins ``0``, an index supplies
  its swap counter :attr:`~repro.index.gemini.WarpingIndex.generation`,
  and the sharded tier supplies the composite ``(generation, router
  epoch)`` so a shard rebuild *or* a worker respawn
  (:attr:`repro.shard.ShardRouter.epoch`) also invalidates — the
  property test in ``tests/shard/`` interleaves swaps, forced
  respawns, and queries to pin that down.
* **Bounding** — least-recently-used eviction above *max_entries* and
  an optional TTL so an idle service eventually drops cold results.

The cache stores exactly what the engine returned — ``(id, distance)``
pairs — so a hit is byte-identical to a recompute against the same
index version; the serving tests replay hits against the engine's
no-false-negative oracles to pin that down.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..obs.clock import monotonic_s

__all__ = ["request_fingerprint", "CacheStats", "ResultCache"]


def request_fingerprint(query, kind: str, param) -> str:
    """A stable 16-hex-digit key for one (query, kind, param) request.

    The query is canonicalised to a contiguous float64 array so every
    representation of the same values (lists, float32 arrays, views)
    maps to the same bytes; *kind* and *param* ride along so a range
    and a k-NN request over the same series never collide.
    """
    q = np.ascontiguousarray(query, dtype=np.float64)
    digest = hashlib.sha1()
    digest.update(q.tobytes())
    digest.update(f"|{kind}|{param!r}".encode())
    return digest.hexdigest()[:16]


@dataclass
class CacheStats:
    """Probe accounting: how the cache is actually behaving."""

    hits: int = 0
    misses: int = 0
    stale: int = 0
    expired: int = 0
    evictions: int = 0
    puts: int = 0

    @property
    def probes(self) -> int:
        """Total :meth:`ResultCache.get` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the cache."""
        return self.hits / self.probes if self.probes else 0.0

    def to_dict(self) -> dict:
        """The accounting as a JSON-ready dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "expired": self.expired,
            "evictions": self.evictions,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    results: tuple
    version: object  # any equatable value, e.g. int or (int, int)
    stored_s: float


class ResultCache:
    """Thread-safe LRU + TTL cache of exact query results.

    Parameters
    ----------
    max_entries:
        LRU capacity; the least recently *probed* entry is evicted
        first.  ``0`` disables storage entirely (every probe misses).
    ttl_s:
        Optional time-to-live: entries older than this are treated as
        misses and dropped at probe time.  ``None`` = no expiry.
    clock:
        Monotonic time source (tests inject a fake one).

    Every entry carries the index version it was computed under;
    :meth:`get` only returns entries whose stored version equals the
    *version* argument, which is how a generation swap invalidates
    the whole cache at zero cost (see the module docstring).
    """

    def __init__(self, max_entries: int = 1024,
                 ttl_s: float | None = None, *, clock=monotonic_s) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self._clock = clock
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str, version) -> tuple | None:
        """The cached results for *key* at *version*, or ``None``.

        A present entry misses when its stored version differs from
        *version* (the index swapped since it was computed) or its TTL
        lapsed; both kinds are dropped on the spot so the slot frees up.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.version != version:
                del self._entries[key]
                self.stats.stale += 1
                self.stats.misses += 1
                return None
            if (self.ttl_s is not None
                    and self._clock() - entry.stored_s > self.ttl_s):
                del self._entries[key]
                self.stats.expired += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.results

    def put(self, key: str, version, results) -> None:
        """Store *results* computed under index *version*.

        Results are frozen to a tuple — cached answers are shared
        between every future hit, so they must be treated as read-only.
        """
        if self.max_entries == 0:
            return
        entry = _Entry(results=tuple(results), version=version,
                       stored_s=self._clock())
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.stats.puts += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (probe statistics are kept)."""
        with self._lock:
            self._entries.clear()

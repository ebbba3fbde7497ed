"""Linear scan: the no-index baseline and ground-truth oracle.

Implements the same query interface as the real indexes so the GEMINI
layer and the benchmarks can swap it in.  A full scan reads every
"page" of ``capacity`` points, which is what its page-access counter
reports — the cost an index must beat.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = ["LinearScan"]


class LinearScan:
    """Brute-force index over points.

    Parameters
    ----------
    points:
        Array of shape ``(m, dim)``.
    ids:
        Optional identifiers, default ``range(m)``.
    capacity:
        Points per notional page, used only for page-access accounting.

    Both queries account their cost **eagerly at call time** — a full
    scan touches every page and every point the moment the query is
    issued — so ``reset_stats()`` has a consistent meaning: counters
    reflect exactly the queries issued since the last reset, never a
    query issued earlier whose results were consumed later.
    """

    def __init__(self, points, ids=None, *, capacity: int = 50) -> None:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {pts.shape}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        m = pts.shape[0]
        if ids is None:
            ids = range(m)
        ids = list(ids)
        if len(ids) != m:
            raise ValueError(f"{m} points but {len(ids)} ids")
        self.dim = pts.shape[1]
        self.capacity = capacity
        self.page_accesses = 0
        self.points_scanned = 0
        self._points = pts.copy()
        self._ids = ids

    def __len__(self) -> int:
        return self._points.shape[0]

    def reset_stats(self) -> None:
        """Zero every cost counter (pages and points scanned)."""
        self.page_accesses = 0
        self.points_scanned = 0

    def _account_scan(self) -> None:
        """Record the cost of one full scan (called when a query is issued)."""
        self.page_accesses += math.ceil(len(self) / self.capacity)
        self.points_scanned += len(self)

    def _rect_distances(self, rect_lower, rect_upper,
                        metric: str) -> np.ndarray:
        """Per-point rectangle distance (true distance, not a cost)."""
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(
                f"metric must be 'euclidean' or 'manhattan', got {metric!r}"
            )
        q_lower = np.asarray(rect_lower, dtype=np.float64)
        q_upper = np.asarray(rect_upper, dtype=np.float64)
        if q_lower.shape != (self.dim,) or q_upper.shape != (self.dim,):
            raise ValueError(f"query rectangle must have shape ({self.dim},)")
        if np.any(q_lower > q_upper):
            raise ValueError("query rectangle has lower > upper")
        gap = np.maximum(q_lower - self._points, 0.0) + np.maximum(
            self._points - q_upper, 0.0
        )
        if metric == "manhattan":
            return np.sum(gap, axis=1)
        return np.sqrt(np.sum(gap * gap, axis=1))

    def range_search(self, rect_lower, rect_upper, radius: float, *,
                     metric: str = "euclidean") -> list:
        """All ids within *radius* of the query rectangle (full scan)."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        self._account_scan()
        dist = self._rect_distances(rect_lower, rect_upper, metric)
        hits = np.nonzero(dist <= radius)[0]
        return [self._ids[i] for i in hits]

    def nearest(self, rect_lower, rect_upper, *,
                metric: str = "euclidean") -> Iterator[tuple[float, object]]:
        """Return ``(distance, id)`` pairs in increasing rectangle distance.

        The scan (and its cost accounting) happens here, not lazily at
        first iteration — previously a generator deferred the counter
        update, so a ``reset_stats()`` issued between creating and
        consuming the iterator silently attributed the scan to the
        wrong measurement window.
        """
        self._account_scan()
        dist = self._rect_distances(rect_lower, rect_upper, metric)
        order = np.argsort(dist, kind="stable")
        return iter([(float(dist[i]), self._ids[i]) for i in order])

"""Grid file: the alternative multidimensional index ([35] in the paper).

A simplified grid file over feature vectors: the space is cut into a
regular grid whose extent is fitted to the data at build time, and each
non-empty cell is one bucket ("page").  Queries touch every bucket whose
cell rectangle comes within the query radius; touched buckets count as
page accesses, like R*-tree nodes do.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = ["GridFile"]


def _check_metric(metric: str) -> bool:
    if metric not in ("euclidean", "manhattan"):
        raise ValueError(
            f"metric must be 'euclidean' or 'manhattan', got {metric!r}"
        )
    return metric == "manhattan"


def _gap_cost(gap: np.ndarray, manhattan: bool) -> float:
    """Cost of a per-axis gap vector (L1 sum or squared L2)."""
    if manhattan:
        return float(np.sum(gap))
    return float(np.dot(gap, gap))


class GridFile:
    """A regular-grid bucket index over points.

    Parameters
    ----------
    points:
        Array of shape ``(m, dim)``.
    ids:
        Optional identifiers, default ``range(m)``.
    resolution:
        Number of grid intervals per dimension.
    """

    def __init__(self, points, ids=None, *, resolution: int = 8) -> None:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {pts.shape}")
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        m, dim = pts.shape
        if ids is None:
            ids = range(m)
        ids = list(ids)
        if len(ids) != m:
            raise ValueError(f"{m} points but {len(ids)} ids")
        self.dim = dim
        self.resolution = resolution
        self.page_accesses = 0
        self._size = m
        if m:
            self._origin = pts.min(axis=0)
            extent = pts.max(axis=0) - self._origin
        else:
            self._origin = np.zeros(dim)
            extent = np.ones(dim)
        # Guard degenerate axes so cell width is always positive.
        extent = np.where(extent > 0, extent, 1.0)
        self._cell_width = extent / resolution
        self._buckets: dict[tuple, list] = {}
        # Actual MBR of each bucket's content: immune to the float
        # rounding that makes nominal cell rectangles exclude boundary
        # points, and tighter for pruning.
        self._bucket_mbr: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        for i in range(m):
            cell = self._cell_of(pts[i])
            self._buckets.setdefault(cell, []).append((pts[i].copy(), ids[i]))
            if cell in self._bucket_mbr:
                lo, hi = self._bucket_mbr[cell]
                np.minimum(lo, pts[i], out=lo)
                np.maximum(hi, pts[i], out=hi)
            else:
                self._bucket_mbr[cell] = (pts[i].copy(), pts[i].copy())

    def __len__(self) -> int:
        return self._size

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    def reset_stats(self) -> None:
        self.page_accesses = 0

    def _cell_of(self, point: np.ndarray) -> tuple:
        idx = np.floor((point - self._origin) / self._cell_width).astype(np.int64)
        np.clip(idx, 0, self.resolution - 1, out=idx)
        return tuple(idx.tolist())

    def _cell_rect(self, cell: tuple) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(cell, dtype=np.float64)
        lower = self._origin + idx * self._cell_width
        return lower, lower + self._cell_width

    def range_search(self, rect_lower, rect_upper, radius: float, *,
                     metric: str = "euclidean") -> list:
        """All ids within *radius* of the query rectangle.

        Scans the directory of non-empty cells; buckets whose cell
        rectangle is within the radius are read (one page access each)
        and filtered point by point.  *metric* selects Euclidean or
        Manhattan geometry.
        """
        manhattan = _check_metric(metric)
        q_lower = np.asarray(rect_lower, dtype=np.float64)
        q_upper = np.asarray(rect_upper, dtype=np.float64)
        if q_lower.shape != (self.dim,) or q_upper.shape != (self.dim,):
            raise ValueError(f"query rectangle must have shape ({self.dim},)")
        if np.any(q_lower > q_upper):
            raise ValueError("query rectangle has lower > upper")
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        limit = radius if manhattan else radius * radius
        results = []
        for cell, bucket in self._buckets.items():
            c_lower, c_upper = self._bucket_mbr[cell]
            gap = np.maximum(q_lower - c_upper, 0.0) + np.maximum(
                c_lower - q_upper, 0.0
            )
            if _gap_cost(gap, manhattan) > limit:
                continue
            self.page_accesses += 1
            for point, item_id in bucket:
                pgap = np.maximum(q_lower - point, 0.0) + np.maximum(
                    point - q_upper, 0.0
                )
                if _gap_cost(pgap, manhattan) <= limit:
                    results.append(item_id)
        return results

    def nearest(self, rect_lower, rect_upper, *,
                metric: str = "euclidean") -> Iterator[tuple[float, object]]:
        """Yield ``(distance, id)`` by increasing rectangle distance.

        The grid file has no hierarchical pruning, so this ranks bucket
        by bucket in cell-distance order.
        """
        manhattan = _check_metric(metric)
        q_lower = np.asarray(rect_lower, dtype=np.float64)
        q_upper = np.asarray(rect_upper, dtype=np.float64)
        ranked_cells = []
        for cell, bucket in self._buckets.items():
            c_lower, c_upper = self._bucket_mbr[cell]
            gap = np.maximum(q_lower - c_upper, 0.0) + np.maximum(
                c_lower - q_upper, 0.0
            )
            ranked_cells.append((_gap_cost(gap, manhattan), cell))
        ranked_cells.sort()

        import heapq

        def finish(cost: float) -> float:
            return cost if manhattan else math.sqrt(cost)

        pending: list[tuple[float, int, object]] = []
        counter = 0
        for cell_cost, cell in ranked_cells:
            # Everything already in the heap closer than this cell can
            # be emitted safely before the bucket is read.
            while pending and pending[0][0] <= cell_cost:
                cost, _, item_id = heapq.heappop(pending)
                yield finish(cost), item_id
            self.page_accesses += 1
            for point, item_id in self._buckets[cell]:
                pgap = np.maximum(q_lower - point, 0.0) + np.maximum(
                    point - q_upper, 0.0
                )
                heapq.heappush(
                    pending, (_gap_cost(pgap, manhattan), counter, item_id)
                )
                counter += 1
        while pending:
            cost, _, item_id = heapq.heappop(pending)
            yield finish(cost), item_id

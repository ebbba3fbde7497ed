"""R*-tree: the multidimensional index behind the warping index.

A from-scratch implementation of Beckmann, Kriegel, Schneider & Seeger
(SIGMOD 1990), the index the paper uses (via LibGist) to store reduced
feature vectors.  Supported operations:

* dynamic ``insert`` with R* subtree choice, forced reinsertion, and
  the margin/overlap-driven split;
* ``bulk_load`` via Sort-Tile-Recursive packing (used to build the
  35k/50k-point indexes of Figures 9-10 quickly);
* rectangle-range search (:meth:`RStarTree.range_search`) — all points
  within Euclidean distance ``radius`` of a query *rectangle*, which is
  exactly the feature-space envelope query of Section 4.3;
* incremental nearest-neighbour ranking (:meth:`RStarTree.nearest`),
  the primitive under optimal multi-step k-NN.

Every node visited during a query counts as one **page access**, the
implementation-free IO measure reported in Figures 9 and 10.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterator

import numpy as np

__all__ = ["RStarTree"]


class _Node:
    """A tree node: a page holding points (leaf) or child nodes."""

    __slots__ = ("leaf", "entries", "lower", "upper")

    def __init__(self, leaf: bool, dim: int) -> None:
        self.leaf = leaf
        self.entries: list = []  # (point, item_id) tuples or _Node children
        self.lower = np.full(dim, math.inf)
        self.upper = np.full(dim, -math.inf)

    def recompute_mbr(self) -> None:
        dim = self.lower.size
        lower = np.full(dim, math.inf)
        upper = np.full(dim, -math.inf)
        if self.leaf:
            for point, _ in self.entries:
                np.minimum(lower, point, out=lower)
                np.maximum(upper, point, out=upper)
        else:
            for child in self.entries:
                np.minimum(lower, child.lower, out=lower)
                np.maximum(upper, child.upper, out=upper)
        self.lower = lower
        self.upper = upper

    def extend_mbr(self, lower: np.ndarray, upper: np.ndarray) -> None:
        np.minimum(self.lower, lower, out=self.lower)
        np.maximum(self.upper, upper, out=self.upper)


def _area(lower: np.ndarray, upper: np.ndarray) -> float:
    return float(np.prod(np.maximum(upper - lower, 0.0)))


def _margin(lower: np.ndarray, upper: np.ndarray) -> float:
    return float(np.sum(np.maximum(upper - lower, 0.0)))


def _enlargement(lower, upper, plower, pupper) -> float:
    new_lower = np.minimum(lower, plower)
    new_upper = np.maximum(upper, pupper)
    return _area(new_lower, new_upper) - _area(lower, upper)


def _overlap(a_lower, a_upper, b_lower, b_upper) -> float:
    inter_lower = np.maximum(a_lower, b_lower)
    inter_upper = np.minimum(a_upper, b_upper)
    return _area(inter_lower, inter_upper)


def _mindist_cost(lower, upper, q_lower, q_upper, manhattan: bool) -> float:
    """Min distance between two axis-aligned rectangles, as a *cost*.

    With ``q_lower == q_upper`` this is point-to-rectangle MINDIST; in
    general it is the gap between the boxes along each axis.  The cost
    is the squared Euclidean distance, or the plain L1 sum when
    *manhattan* — callers compare it against ``radius**2`` or
    ``radius`` respectively.
    """
    gap = np.maximum(q_lower - upper, 0.0) + np.maximum(lower - q_upper, 0.0)
    if manhattan:
        return float(np.sum(gap))
    return float(np.dot(gap, gap))


def _radius_cost(radius: float, manhattan: bool) -> float:
    return radius if manhattan else radius * radius


def _cost_to_distance(cost: float, manhattan: bool) -> float:
    return cost if manhattan else math.sqrt(cost)


def _check_metric(metric: str) -> bool:
    if metric not in ("euclidean", "manhattan"):
        raise ValueError(
            f"metric must be 'euclidean' or 'manhattan', got {metric!r}"
        )
    return metric == "manhattan"


def _sort_tile(items: list, axis: int, capacity: int, dim: int) -> list[list]:
    """Sort-Tile-Recursive step: split ``(key, payload)`` pairs into
    groups of at most *capacity*, slicing along *axis* and onward.

    A module function, not a closure inside the tree's method: a
    self-recursive closure is a reference cycle that would keep the
    tree it captured alive until the cyclic collector runs.
    """
    if len(items) <= capacity:
        return [items]
    items.sort(key=lambda kv: kv[0][axis])
    if axis >= dim - 1:
        return [
            items[i : i + capacity]
            for i in range(0, len(items), capacity)
        ]
    n_pages = math.ceil(len(items) / capacity)
    n_slices = max(1, math.ceil(n_pages ** (1.0 / (dim - axis))))
    slice_size = math.ceil(len(items) / n_slices)
    groups = []
    for i in range(0, len(items), slice_size):
        groups.extend(
            _sort_tile(items[i : i + slice_size], axis + 1, capacity, dim)
        )
    return groups


class RStarTree:
    """An R*-tree over ``dim``-dimensional points.

    Parameters
    ----------
    dim:
        Dimensionality of the indexed feature vectors.
    capacity:
        Maximum entries per node — the "page size" of the index.
    min_fill:
        Minimum fill ratio after a split (R* recommends 0.4).
    reinsert_fraction:
        Fraction of entries force-reinserted on first overflow of a
        level (R* recommends 0.3; only used by the "rstar" strategy).
    split_strategy:
        ``"rstar"`` (Beckmann et al., default), or Guttman's classic
        ``"quadratic"`` / ``"linear"`` splits — kept for the ablation
        comparing node quality across split algorithms.

    Notes
    -----
    ``page_accesses`` accumulates across queries; call
    :meth:`reset_stats` between measurements.
    """

    _STRATEGIES = ("rstar", "quadratic", "linear")

    def __init__(
        self,
        dim: int,
        *,
        capacity: int = 50,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
        split_strategy: str = "rstar",
    ) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if capacity < 4:
            raise ValueError(f"node capacity must be >= 4, got {capacity}")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError(f"min fill must be in (0, 0.5], got {min_fill}")
        if split_strategy not in self._STRATEGIES:
            raise ValueError(
                f"split strategy must be one of {self._STRATEGIES}, "
                f"got {split_strategy!r}"
            )
        self.dim = dim
        self.capacity = capacity
        self.min_entries = max(2, int(capacity * min_fill))
        self.reinsert_count = max(1, int(capacity * reinsert_fraction))
        self.split_strategy = split_strategy
        self._root = _Node(leaf=True, dim=dim)
        self._size = 0
        self.page_accesses = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is a single leaf)."""
        levels = 1
        node = self._root
        while not node.leaf:
            node = node.entries[0]
            levels += 1
        return levels

    def reset_stats(self) -> None:
        """Zero the page-access counter (between measured queries)."""
        self.page_accesses = 0

    def insert(self, point, item_id) -> None:
        """Insert one point with an opaque identifier."""
        pt = np.asarray(point, dtype=np.float64)
        if pt.shape != (self.dim,):
            raise ValueError(f"expected a point of shape ({self.dim},), got {pt.shape}")
        self._insert_entry((pt.copy(), item_id), level=0, reinserting=set())
        self._size += 1

    @classmethod
    def bulk_load(
        cls,
        points,
        ids=None,
        *,
        capacity: int = 50,
        min_fill: float = 0.4,
    ) -> "RStarTree":
        """Build a packed tree with Sort-Tile-Recursive loading.

        Parameters
        ----------
        points:
            Array of shape ``(m, dim)``.
        ids:
            Optional identifiers, default ``range(m)``.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {pts.shape}")
        m, dim = pts.shape
        if ids is None:
            ids = range(m)
        ids = list(ids)
        if len(ids) != m:
            raise ValueError(f"{m} points but {len(ids)} ids")
        tree = cls(dim, capacity=capacity, min_fill=min_fill)
        if m == 0:
            return tree
        entries = [(pts[i].copy(), ids[i]) for i in range(m)]
        leaves = tree._str_pack_leaves(entries)
        tree._root = tree._str_build_upper(leaves)
        tree._size = m
        return tree

    def _str_pack_leaves(self, entries: list) -> list[_Node]:
        groups = self._str_tile([e[0] for e in entries], entries)
        leaves = []
        for group in groups:
            node = _Node(leaf=True, dim=self.dim)
            node.entries = group
            node.recompute_mbr()
            leaves.append(node)
        return leaves

    def _str_build_upper(self, nodes: list[_Node]) -> _Node:
        while len(nodes) > 1:
            groups = self._str_tile(
                [(n.lower + n.upper) / 2.0 for n in nodes], nodes
            )
            parents = []
            for group in groups:
                parent = _Node(leaf=False, dim=self.dim)
                parent.entries = group
                parent.recompute_mbr()
                parents.append(parent)
            nodes = parents
        return nodes[0]

    def _str_tile(self, keys: list[np.ndarray], payload: list) -> list[list]:
        """Recursively sort-tile *payload* (keyed by point) into groups
        of at most ``capacity``."""
        keyed = list(zip(keys, payload))
        return [[kv[1] for kv in group]
                for group in _sort_tile(keyed, 0, self.capacity, self.dim)]

    # ------------------------------------------------------------------
    # R* insertion machinery
    # ------------------------------------------------------------------

    def _entry_mbr(self, entry, leaf: bool):
        if leaf:
            point = entry[0]
            return point, point
        return entry.lower, entry.upper

    def _choose_path(self, lower, upper, target_level: int) -> list[_Node]:
        """Path from root to the node at *target_level* that should
        receive an entry with the given MBR (levels count from leaves=0)."""
        path = [self._root]
        node = self._root
        level = self._level_of(node)
        while level > target_level:
            if all(child.leaf for child in node.entries):
                # Children are leaves: minimise overlap enlargement.
                node = self._pick_min_overlap(node, lower, upper)
            else:
                node = self._pick_min_enlargement(node, lower, upper)
            path.append(node)
            level -= 1
        return path

    def _level_of(self, node: _Node) -> int:
        level = 0
        while not node.leaf:
            node = node.entries[0]
            level += 1
        return level

    def _pick_min_enlargement(self, node: _Node, lower, upper) -> _Node:
        best = None
        best_key = None
        for child in node.entries:
            enl = _enlargement(child.lower, child.upper, lower, upper)
            key = (enl, _area(child.lower, child.upper))
            if best_key is None or key < best_key:
                best, best_key = child, key
        return best

    def _pick_min_overlap(self, node: _Node, lower, upper) -> _Node:
        best = None
        best_key = None
        for child in node.entries:
            new_lower = np.minimum(child.lower, lower)
            new_upper = np.maximum(child.upper, upper)
            overlap_increase = 0.0
            for other in node.entries:
                if other is child:
                    continue
                after = _overlap(new_lower, new_upper, other.lower, other.upper)
                before = _overlap(
                    child.lower, child.upper, other.lower, other.upper
                )
                overlap_increase += after - before
            enl = _enlargement(child.lower, child.upper, lower, upper)
            key = (overlap_increase, enl, _area(child.lower, child.upper))
            if best_key is None or key < best_key:
                best, best_key = child, key
        return best

    def _insert_entry(self, entry, level: int, reinserting: set[int]) -> None:
        lower, upper = self._entry_mbr(entry, leaf=(level == 0))
        path = self._choose_path(lower, upper, level)
        target = path[-1]
        target.entries.append(entry)
        for node in path:
            node.extend_mbr(lower, upper)
        if len(target.entries) > self.capacity:
            self._handle_overflow(path, level, reinserting)

    def _handle_overflow(
        self, path: list[_Node], level: int, reinserting: set[int]
    ) -> None:
        node = path[-1]
        is_root = node is self._root
        use_reinsert = self.split_strategy == "rstar"
        if use_reinsert and not is_root and level not in reinserting:
            reinserting.add(level)
            self._reinsert(node, path, level, reinserting)
        else:
            self._split(path, level, reinserting)

    def _reinsert(
        self, node: _Node, path: list[_Node], level: int, reinserting: set[int]
    ) -> None:
        center = (node.lower + node.upper) / 2.0

        def center_dist(entry) -> float:
            lo, hi = self._entry_mbr(entry, node.leaf)
            mid = (np.asarray(lo) + np.asarray(hi)) / 2.0
            return float(np.sum((mid - center) ** 2))

        node.entries.sort(key=center_dist)
        to_reinsert = node.entries[-self.reinsert_count :]
        node.entries = node.entries[: -self.reinsert_count]
        node.recompute_mbr()
        for ancestor in reversed(path[:-1]):
            ancestor.recompute_mbr()
        for entry in to_reinsert:
            self._insert_entry(entry, level, reinserting)

    def _split(self, path: list[_Node], level: int, reinserting: set[int]) -> None:
        node = path[-1]
        if self.split_strategy == "rstar":
            left_entries, right_entries = self._rstar_split(node)
        else:
            left_entries, right_entries = self._guttman_split(
                node, quadratic=(self.split_strategy == "quadratic")
            )
        node.entries = left_entries
        node.recompute_mbr()
        sibling = _Node(leaf=node.leaf, dim=self.dim)
        sibling.entries = right_entries
        sibling.recompute_mbr()

        if node is self._root:
            new_root = _Node(leaf=False, dim=self.dim)
            new_root.entries = [node, sibling]
            new_root.recompute_mbr()
            self._root = new_root
            return
        parent = path[-2]
        parent.entries.append(sibling)
        for ancestor in reversed(path[:-1]):
            ancestor.recompute_mbr()
        if len(parent.entries) > self.capacity:
            self._handle_overflow(path[:-1], level + 1, reinserting)

    def _rstar_split(self, node: _Node) -> tuple[list, list]:
        """Choose split axis by minimum margin, split index by minimum
        overlap (ties: minimum area)."""
        m = self.min_entries
        entries = node.entries
        n = len(entries)

        def mbrs_for(sorted_entries):
            lowers, uppers = [], []
            for entry in sorted_entries:
                lo, hi = self._entry_mbr(entry, node.leaf)
                lowers.append(np.asarray(lo))
                uppers.append(np.asarray(hi))
            return lowers, uppers

        best_axis, best_axis_margin = 0, math.inf
        for axis in range(self.dim):
            for key in (
                lambda e, a=axis: self._entry_mbr(e, node.leaf)[0][a],
                lambda e, a=axis: self._entry_mbr(e, node.leaf)[1][a],
            ):
                ordered = sorted(entries, key=key)
                lowers, uppers = mbrs_for(ordered)
                margin_sum = 0.0
                for split_at in range(m, n - m + 1):
                    l_lo = np.minimum.reduce(lowers[:split_at])
                    l_hi = np.maximum.reduce(uppers[:split_at])
                    r_lo = np.minimum.reduce(lowers[split_at:])
                    r_hi = np.maximum.reduce(uppers[split_at:])
                    margin_sum += _margin(l_lo, l_hi) + _margin(r_lo, r_hi)
                if margin_sum < best_axis_margin:
                    best_axis_margin = margin_sum
                    best_axis = axis

        best_split = None
        best_key = None
        for key in (
            lambda e: self._entry_mbr(e, node.leaf)[0][best_axis],
            lambda e: self._entry_mbr(e, node.leaf)[1][best_axis],
        ):
            ordered = sorted(entries, key=key)
            lowers, uppers = mbrs_for(ordered)
            for split_at in range(m, n - m + 1):
                l_lo = np.minimum.reduce(lowers[:split_at])
                l_hi = np.maximum.reduce(uppers[:split_at])
                r_lo = np.minimum.reduce(lowers[split_at:])
                r_hi = np.maximum.reduce(uppers[split_at:])
                overlap = _overlap(l_lo, l_hi, r_lo, r_hi)
                area = _area(l_lo, l_hi) + _area(r_lo, r_hi)
                cand_key = (overlap, area)
                if best_key is None or cand_key < best_key:
                    best_key = cand_key
                    best_split = (ordered[:split_at], ordered[split_at:])
        return best_split

    def _guttman_split(self, node: _Node, *, quadratic: bool) -> tuple[list, list]:
        """Guttman's quadratic or linear node split (1984).

        Quadratic: seed with the pair wasting the most area together,
        then repeatedly place the entry with the strongest preference.
        Linear: seed with the pair of greatest normalised separation,
        then place remaining entries in arbitrary order by least
        enlargement.  Both honour the minimum fill.
        """
        entries = node.entries
        mbrs = [self._entry_mbr(entry, node.leaf) for entry in entries]
        lowers = [np.asarray(lo) for lo, _ in mbrs]
        uppers = [np.asarray(hi) for _, hi in mbrs]
        n = len(entries)

        if quadratic:
            worst, seeds = -math.inf, (0, 1)
            for i in range(n):
                for j in range(i + 1, n):
                    union_lo = np.minimum(lowers[i], lowers[j])
                    union_hi = np.maximum(uppers[i], uppers[j])
                    dead = (
                        _area(union_lo, union_hi)
                        - _area(lowers[i], uppers[i])
                        - _area(lowers[j], uppers[j])
                    )
                    if dead > worst:
                        worst, seeds = dead, (i, j)
        else:
            best_separation = -math.inf
            seeds = (0, 1)
            for axis in range(self.dim):
                highest_low = max(range(n), key=lambda e: lowers[e][axis])
                lowest_high = min(range(n), key=lambda e: uppers[e][axis])
                if highest_low == lowest_high:
                    continue
                extent = (
                    max(uppers[e][axis] for e in range(n))
                    - min(lowers[e][axis] for e in range(n))
                )
                if extent <= 0:
                    continue
                separation = (
                    lowers[highest_low][axis] - uppers[lowest_high][axis]
                ) / extent
                if separation > best_separation:
                    best_separation = separation
                    seeds = (lowest_high, highest_low)

        groups: tuple[list[int], list[int]] = ([seeds[0]], [seeds[1]])
        group_lo = [lowers[seeds[0]].copy(), lowers[seeds[1]].copy()]
        group_hi = [uppers[seeds[0]].copy(), uppers[seeds[1]].copy()]
        remaining = [e for e in range(n) if e not in seeds]

        def enlargement(group: int, e: int) -> float:
            return _enlargement(group_lo[group], group_hi[group],
                                lowers[e], uppers[e])

        def assign(group: int, e: int) -> None:
            groups[group].append(e)
            np.minimum(group_lo[group], lowers[e], out=group_lo[group])
            np.maximum(group_hi[group], uppers[e], out=group_hi[group])

        while remaining:
            # Minimum-fill rescue: hand everything to the starving group.
            for group in (0, 1):
                if len(groups[group]) + len(remaining) == self.min_entries:
                    for e in remaining:
                        assign(group, e)
                    remaining = []
                    break
            if not remaining:
                break
            if quadratic:
                # PickNext: strongest preference first.
                def preference(e: int) -> float:
                    return abs(enlargement(0, e) - enlargement(1, e))

                e = max(remaining, key=preference)
            else:
                e = remaining[0]
            remaining.remove(e)
            d0, d1 = enlargement(0, e), enlargement(1, e)
            if d0 < d1:
                choice = 0
            elif d1 < d0:
                choice = 1
            else:
                choice = 0 if len(groups[0]) <= len(groups[1]) else 1
            assign(choice, e)

        return (
            [entries[e] for e in groups[0]],
            [entries[e] for e in groups[1]],
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def range_search(
        self, rect_lower, rect_upper, radius: float, *,
        metric: str = "euclidean",
    ) -> list:
        """All item ids within *radius* of the query rectangle.

        The query rectangle is the feature-space envelope ``[E^L, E^U]``
        of Section 4.3; with ``rect_lower == rect_upper`` this is an
        ordinary spherical range query around a point.  Each node
        visited counts one page access.  *metric* selects the distance
        (Euclidean or Manhattan) used for both pruning and membership.
        """
        manhattan = _check_metric(metric)
        q_lower, q_upper = self._check_rect(rect_lower, rect_upper)
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        limit = _radius_cost(radius, manhattan)
        results = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.page_accesses += 1
            if node.leaf:
                for point, item_id in node.entries:
                    if _mindist_cost(point, point, q_lower, q_upper,
                                     manhattan) <= limit:
                        results.append(item_id)
            else:
                for child in node.entries:
                    if (
                        _mindist_cost(child.lower, child.upper, q_lower,
                                      q_upper, manhattan)
                        <= limit
                    ):
                        stack.append(child)
        return results

    def nearest(
        self, rect_lower, rect_upper, *, metric: str = "euclidean"
    ) -> Iterator[tuple[float, object]]:
        """Incrementally yield ``(distance, id)`` by increasing distance
        to the query rectangle (Hjaltason-Samet best-first traversal).

        This is the ranking primitive of optimal multi-step k-NN: the
        caller pops candidates until the next lower bound exceeds its
        current k-th true distance.
        """
        manhattan = _check_metric(metric)
        q_lower, q_upper = self._check_rect(rect_lower, rect_upper)
        counter = itertools.count()  # tie-breaker, avoids comparing nodes
        heap = [(0.0, next(counter), False, self._root)]
        while heap:
            cost, _, is_point, payload = heapq.heappop(heap)
            if is_point:
                yield _cost_to_distance(cost, manhattan), payload
                continue
            node = payload
            self.page_accesses += 1
            if node.leaf:
                for point, item_id in node.entries:
                    d = _mindist_cost(point, point, q_lower, q_upper, manhattan)
                    heapq.heappush(heap, (d, next(counter), True, item_id))
            else:
                for child in node.entries:
                    d = _mindist_cost(child.lower, child.upper, q_lower,
                                      q_upper, manhattan)
                    heapq.heappush(heap, (d, next(counter), False, child))

    def _check_rect(self, rect_lower, rect_upper):
        q_lower = np.asarray(rect_lower, dtype=np.float64)
        q_upper = np.asarray(rect_upper, dtype=np.float64)
        if q_lower.shape != (self.dim,) or q_upper.shape != (self.dim,):
            raise ValueError(
                f"query rectangle must have shape ({self.dim},), got "
                f"{q_lower.shape} and {q_upper.shape}"
            )
        if np.any(q_lower > q_upper):
            raise ValueError("query rectangle has lower > upper")
        return q_lower, q_upper

    def items(self) -> Iterator[tuple[np.ndarray, object]]:
        """Iterate all (point, id) pairs (tree order)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                yield from node.entries
            else:
                stack.extend(node.entries)

    def check_invariants(self) -> None:
        """Validate structural invariants (for tests): MBR containment,
        fill factors, and uniform leaf depth.

        Raises ``AssertionError`` on violation.
        """
        depths = set()

        def visit(node: _Node, depth: int, is_root: bool) -> None:
            if node.leaf:
                depths.add(depth)
                for point, _ in node.entries:
                    assert np.all(point >= node.lower - 1e-12)
                    assert np.all(point <= node.upper + 1e-12)
            else:
                assert node.entries, "internal node must have children"
                for child in node.entries:
                    assert np.all(child.lower >= node.lower - 1e-12)
                    assert np.all(child.upper <= node.upper + 1e-12)
                    visit(child, depth + 1, False)
            if not is_root and self._size > self.capacity:
                assert len(node.entries) >= 2, "underfull node"
            assert len(node.entries) <= self.capacity, "overfull node"

        visit(self._root, 0, True)
        assert len(depths) == 1, f"leaves at different depths: {depths}"
        assert sum(1 for _ in self.items()) == self._size

"""Banded-DTW computation kernels: one per call shape.

The exact Sakoe-Chiba banded DTW of Definition 4 is the repo's hottest
inner loop: every candidate that survives the lower-bound cascade pays
one banded dynamic program.  This module is the single place that
dynamic program lives, as one function per call shape:

:func:`banded_dtw_cost`
    One ``(x, y)`` pair: the per-cell Python loop, row by row over the
    band.  Simple, obviously correct, and the reference every other
    computation is tested against.  It is also the single-pair path
    (the tree route's k-NN refines one candidate at a time).

:func:`banded_dtw_cost_batch`
    One query against a ``(B, n)`` candidate matrix, with one of two
    bodies and the same answers from either:

    * **native** — ``banded_dtw.c`` next to this file: the reference's
      row-major DP per candidate, with row-granularity abandoning.  The
      first call in a process compiles it with ``cc`` into
      ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), keyed by
      a hash of the source and the compiler command, and loads it with
      :mod:`ctypes`, which releases the GIL for the call.  A call costs
      tens of microseconds whatever its row count.
    * **NumPy** — when no build can be had (no ``cc``, a compile or
      load error, an unwritable cache): an anti-diagonal *wavefront*
      sweep.  All cells on one anti-diagonal ``i + j = d`` are
      independent given diagonals ``d-1`` and ``d-2``, so each diagonal
      of all ``B`` candidates is one batch of NumPy operations.  A
      candidate is abandoned at diagonal granularity once the running
      minimum over two consecutive wavefronts exceeds its cutoff (every
      warping path advances ``i + j`` by 1 or 2).  A call costs a few
      milliseconds of dispatch whatever its row count.

    The engine, the tree route's range query and every oracle reach the
    DTW through it.

All work in **accumulated-cost space**: squared differences for the
Euclidean metric (the square root is the caller's job, as in the
paper's ``D^2`` recurrences) and absolute differences for Manhattan.
``inf`` means "no admissible path" or "abandoned against the cutoff".
For ``k >= 1`` every body does the same IEEE operations per cell (the C
is built with ``-ffp-contract=off`` and without ``-ffast-math``), so a
finished cost agrees bit for bit; bodies differ only in which
over-cutoff rows they abandon.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "KernelStats",
    "banded_dtw_cost",
    "banded_dtw_cost_batch",
]

_INF = math.inf

#: Target bytes per DP buffer in the batched wavefront; candidates are
#: processed in column blocks of roughly this footprint so the three
#: rolling diagonals stay cache-resident regardless of batch size.
_BATCH_BLOCK_BYTES = 2_000_000

#: Compaction policy for per-candidate early abandoning: dead columns
#: are physically dropped once they are numerous enough for the copy
#: to pay for itself.
_COMPACT_MIN_DEAD = 32
_COMPACT_DEAD_FRACTION = 0.5


#: The native body's source, shipped next to this module.
_SOURCE = Path(__file__).with_name("banded_dtw.c")

#: Compiler flags for the native body.  ``-ffp-contract=off`` keeps
#: ``best + d*d`` two roundings (no fused multiply-add), and there is
#: no ``-ffast-math`` or ``-march=native``: costs stay bit-identical to
#: the reference, and a build cached on a home directory shared across
#: hosts runs on all of them.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: The loaded native entry point, ``None`` for the NumPy body, or
#: :data:`_UNLOADED` until the first batched call decides.
_UNLOADED = object()
_native = _UNLOADED
_native_lock = threading.Lock()


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, or ``~/.cache/repro`` (XDG default)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = Path.home() / ".cache"
    return Path(base) / "repro"


def _bind(path: Path):
    """The entry point of the shared object at *path*, or ``None``."""
    try:
        fn = ctypes.CDLL(str(path)).banded_dtw_batch
    except (OSError, AttributeError):  # truncated, foreign or stale
        return None
    fn.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                   ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                   ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p)
    fn.restype = ctypes.c_int64
    return fn


def _load_native():
    """Load the cached native body, building it first if need be.

    The build goes to a temporary file in the cache directory and is
    moved into place with :func:`os.replace`, so processes starting at
    the same moment never load a half-written file.  Any failure
    yields ``None`` (the NumPy body) rather than an exception.
    """
    try:
        cc = shutil.which("cc")
        if cc is None:
            return None
        source = _SOURCE.read_bytes()
        command = [cc, *_CFLAGS]
        key = hashlib.sha256(b"\0".join(
            [source, platform.machine().encode(),
             *(arg.encode() for arg in command)])).hexdigest()[:16]
        cache = _cache_dir()
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        path = cache / f"banded_dtw-{key}.so"
        if path.exists():
            fn = _bind(path)
            if fn is not None:
                return fn
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
        os.close(fd)
        try:
            subprocess.run([*command, "-o", tmp, "-x", "c", "-"],
                           input=source, capture_output=True, check=True,
                           timeout=120)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return _bind(path)
    except (OSError, RuntimeError, subprocess.SubprocessError):
        # No home directory, an unwritable cache, a failed or hung
        # compile: the NumPy body answers instead, and nothing raises.
        return None


def _native_kernel():
    """The native entry point (loaded on first use) or ``None``."""
    global _native
    if _native is _UNLOADED:
        with _native_lock:
            if _native is _UNLOADED:
                _native = _load_native()
    return _native


class KernelStats:
    """Opt-in work counters a kernel call fills in.

    Pass one to :func:`banded_dtw_cost` / :func:`banded_dtw_cost_batch`
    (or through :func:`repro.dtw.distance.ldtw_distance_batch` /
    :func:`~repro.dtw.distance.ldtw_refiner`) and the kernel
    accumulates into it; the observability layer folds the totals into
    the ``dtw.*`` metrics and kernel spans.  The object is plain
    mutable state with no locking — share one only within a thread
    (the engine keeps one per query).

    Attributes
    ----------
    calls:
        Kernel dispatches (one per single-pair call, native batch call
        or NumPy batch block).
    rows:
        Candidate rows processed across those calls.
    cells:
        Band DP cells evaluated (dead columns stop counting once
        abandoned or compacted away) — the implementation-bias-free
        work measure for comparing cutoffs.
    compacted_columns:
        Candidate columns physically dropped from batched wavefront
        blocks by dead-column compaction (the NumPy body's; the native
        body abandons row by row and compacts nothing).
    """

    __slots__ = ("calls", "rows", "cells", "compacted_columns")

    def __init__(self) -> None:
        self.calls = 0
        self.rows = 0
        self.cells = 0
        self.compacted_columns = 0

    def merge(self, other: "KernelStats") -> None:
        """Fold another recorder's counts into this one."""
        self.calls += other.calls
        self.rows += other.rows
        self.cells += other.cells
        self.compacted_columns += other.compacted_columns

    def as_dict(self) -> dict:
        """The counters as a JSON-ready dict."""
        return {
            "calls": self.calls,
            "rows": self.rows,
            "cells": self.cells,
            "compacted_columns": self.compacted_columns,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KernelStats(calls={self.calls}, rows={self.rows}, "
                f"cells={self.cells}, "
                f"compacted_columns={self.compacted_columns})")


def _broadcast_bounds(
    bound_costs: np.ndarray | float | None, m: int
) -> np.ndarray:
    if bound_costs is None:
        return np.full(m, _INF)
    bounds = np.asarray(bound_costs, dtype=np.float64)
    if bounds.ndim == 0:
        return np.full(m, float(bounds))
    if bounds.shape != (m,):
        raise ValueError(
            f"bound_costs must be a scalar or shape ({m},), got {bounds.shape}"
        )
    return np.ascontiguousarray(bounds)


def banded_dtw_cost(
    x,
    y,
    k: int,
    bound_cost: float = _INF,
    *,
    manhattan: bool = False,
    stats: KernelStats | None = None,
) -> float:
    """Accumulated banded-DTW cost of one pair; ``inf`` if pruned.

    The per-cell arithmetic runs on Python floats (lists are faster to
    iterate than ndarrays; a list argument is used as given, so a
    caller refining many candidates against one query converts it
    once), with row-granularity early abandoning: a warping path visits
    every row, so once every reachable cell of a row exceeds
    *bound_cost* no path can finish below it.  *stats*, when given,
    receives work counters.
    """
    x_list = x if isinstance(x, list) else \
        np.asarray(x, dtype=np.float64).tolist()
    y_list = y if isinstance(y, list) else \
        np.asarray(y, dtype=np.float64).tolist()
    n = len(x_list)
    m = len(y_list)
    if stats is not None:
        stats.calls += 1
        stats.rows += 1
    if abs(n - m) > k:
        return _INF

    inf = _INF
    cells = 0
    prev = [inf] * m
    for i in range(n):
        lo = max(0, i - k)
        hi = min(m - 1, i + k)
        cells += hi - lo + 1
        curr = [inf] * m
        row_min = inf
        xi = x_list[i]
        for j in range(lo, hi + 1):
            d = xi - y_list[j]
            cost = (d if d >= 0 else -d) if manhattan else d * d
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = inf
                if i > 0:
                    if prev[j] < best:
                        best = prev[j]
                    if j > 0 and prev[j - 1] < best:
                        best = prev[j - 1]
                if j > 0 and curr[j - 1] < best:
                    best = curr[j - 1]
                if best == inf:
                    continue
            total = best + cost
            curr[j] = total
            if total < row_min:
                row_min = total
        if row_min > bound_cost:
            if stats is not None:
                stats.cells += cells
            return inf
        prev = curr
    if stats is not None:
        stats.cells += cells
    return prev[m - 1]


def banded_dtw_cost_batch(
    x,
    candidates,
    k: int,
    bound_costs=None,
    *,
    manhattan: bool = False,
    stats: KernelStats | None = None,
) -> np.ndarray:
    """Costs from *x* to every row of *candidates* (``inf`` = pruned).

    *bound_costs* may be a scalar cutoff shared by every candidate or
    one cutoff per row; ``None`` disables abandoning.  The native body
    answers in one call; the NumPy body sweeps candidates in column
    blocks of about :data:`_BATCH_BLOCK_BYTES` per DP buffer.  *stats*,
    when given, receives work counters.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    candidates = np.ascontiguousarray(candidates, dtype=np.float64)
    total = candidates.shape[0]
    if total == 0:
        return np.zeros(0)
    if stats is not None:
        stats.rows += total
    bounds = None if bound_costs is None else _broadcast_bounds(
        bound_costs, total
    )
    n = x.size
    m = candidates.shape[1]
    if abs(n - m) > k:
        if stats is not None:
            stats.calls += 1
        return np.full(total, _INF)
    if k == 0:
        if stats is not None:
            stats.calls += 1
            stats.cells += total * n
        diff = candidates - x
        if manhattan:
            totals = np.abs(diff).sum(axis=1)
        else:
            totals = np.einsum("ij,ij->i", diff, diff)
        if bounds is not None:
            totals = np.where(totals > bounds, _INF, totals)
        return totals

    native = _native_kernel()
    if native is not None:
        out = np.empty(total)
        cells = native(
            x.ctypes.data, n, candidates.ctypes.data, total, m, k,
            None if bounds is None else bounds.ctypes.data,
            int(manhattan), out.ctypes.data,
        )
        if cells >= 0:
            if stats is not None:
                stats.calls += 1
                stats.cells += cells
            return out

    block = max(64, _BATCH_BLOCK_BYTES // ((n + 1) * 8))
    out = np.empty(total)
    for start in range(0, total, block):
        stop = min(start + block, total)
        if stats is not None:
            stats.calls += 1
        out[start:stop] = _batch_block(
            x,
            candidates[start:stop],
            k,
            None if bounds is None else bounds[start:stop],
            manhattan,
            stats,
        )
    return out


def _batch_block(
    x: np.ndarray,
    candidates: np.ndarray,
    k: int,
    bounds: np.ndarray | None,
    manhattan: bool,
    stats: KernelStats | None = None,
) -> np.ndarray:
    """One column block of the wavefront sweep (``k >= 1``).

    Cells on anti-diagonal ``d`` live at rows ``i`` with
    ``max(0, d-m+1, ceil((d-k)/2)) <= i <= min(n-1, d, floor((d+k)/2))``
    (the inner pair is the band ``|2i - d| <= k``); for ``k >= 1``
    every diagonal window is non-empty and both ends are non-decreasing
    in ``d``, which is what makes the rolling-buffer bookkeeping sound.
    The recurrence for a cell ``(i, d-i)`` reads the two neighbours on
    diagonal ``d-1`` (buffer positions ``i`` and ``i+1`` with a one-slot
    left pad) and the diagonal neighbour on ``d-2`` (position ``i``).
    """
    inf = _INF
    cells = 0
    n = x.size
    batch, m = candidates.shape
    # Row t of the flipped transpose is y[m-1-t] for every
    # candidate at once, so each diagonal's y values are one
    # contiguous row slice.
    flipped = np.ascontiguousarray(candidates.T[::-1])
    out = np.full(batch, inf)
    cols = np.arange(batch)
    prev2 = np.full((n + 1, batch), inf)
    prev1 = np.full((n + 1, batch), inf)
    cur = np.full((n + 1, batch), inf)
    check = bounds is not None
    if check:
        bounds = bounds.copy()
        prev_min = np.full(batch, inf)
    for d in range(n + m - 1):
        lo = max(0, d - (m - 1), -((k - d) // 2))
        hi = min(n - 1, d, (d + k) // 2)
        cells += (hi - lo + 1) * cols.size
        diff = x[lo:hi + 1, None] - flipped[m - 1 - d + lo:m - d + hi]
        cost = np.abs(diff) if manhattan else diff * diff
        if d == 0:
            cur[1] = cost[0]
            cur_min = cost[0].copy()
        else:
            seg = np.minimum(prev1[lo + 1:hi + 2], prev1[lo:hi + 1])
            np.minimum(seg, prev2[lo:hi + 1], out=seg)
            seg += cost
            cur[lo + 1:hi + 2] = seg
            cur_min = seg.min(axis=0) if check else None
        # The window only moves right; this one slot is the only
        # stale position later diagonals can read.
        cur[lo] = inf
        if check:
            dead = (cur_min > bounds) & (prev_min > bounds)
            n_dead = int(np.count_nonzero(dead))
            if n_dead == cols.size:
                if stats is not None:
                    stats.cells += cells
                return out
            if (n_dead >= _COMPACT_MIN_DEAD
                    and n_dead >= _COMPACT_DEAD_FRACTION * cols.size):
                keep = ~dead
                flipped = np.ascontiguousarray(flipped[:, keep])
                prev2 = np.ascontiguousarray(prev2[:, keep])
                prev1 = np.ascontiguousarray(prev1[:, keep])
                cur = np.ascontiguousarray(cur[:, keep])
                bounds = bounds[keep]
                cols = cols[keep]
                cur_min = cur_min[keep]
                if stats is not None:
                    stats.compacted_columns += n_dead
            prev_min = cur_min
        prev2, prev1, cur = prev1, cur, prev2
    out[cols] = prev1[n]
    if stats is not None:
        stats.cells += cells
    return out

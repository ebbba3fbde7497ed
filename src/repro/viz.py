"""Terminal visualisation helpers.

Matplotlib-free plotting for examples, benchmarks, and debugging:
scatter a series, band an envelope, draw a warping grid — all as
monospace text.  Deliberately simple; everything returns a string so
callers decide where it goes.
"""

from __future__ import annotations

import numpy as np

from .core.envelope import Envelope

__all__ = ["ascii_series", "ascii_envelope", "ascii_warping_grid"]


def _scale_rows(values: np.ndarray, lo: float, hi: float, height: int) -> np.ndarray:
    """Map values to row indices, top row = max."""
    span = (hi - lo) or 1.0
    rows = ((hi - values) / span * (height - 1)).round().astype(int)
    return np.clip(rows, 0, height - 1)


def ascii_series(series, *, height: int = 12, width: int = 72,
                 marker: str = "*", title: str = "") -> str:
    """Scatter a series as text; NaN samples are left blank."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("series must be a non-empty 1-D array")
    if height < 2 or width < 2:
        raise ValueError("height and width must be >= 2")
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        raise ValueError("series has no finite values to plot")
    lo, hi = float(finite.min()), float(finite.max())
    cols = min(width, arr.size)
    idx = np.linspace(0, arr.size - 1, cols).astype(int)
    grid = [[" "] * cols for _ in range(height)]
    sampled = arr[idx]
    mask = np.isfinite(sampled)
    rows = _scale_rows(np.where(mask, sampled, lo), lo, hi, height)
    for col in range(cols):
        if mask[col]:
            grid[rows[col]][col] = marker
    lines = ["".join(row).rstrip() for row in grid]
    if title:
        lines.insert(0, f"--- {title} ---")
    return "\n".join(lines)


def ascii_envelope(series, envelope: Envelope, *, height: int = 14,
                   width: int = 72, title: str = "") -> str:
    """Overlay a series (``*``) on its envelope band (``-``)."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.size != len(envelope):
        raise ValueError("series and envelope lengths differ")
    if height < 2 or width < 2:
        raise ValueError("height and width must be >= 2")
    lo = float(min(arr.min(), envelope.lower.min()))
    hi = float(max(arr.max(), envelope.upper.max()))
    cols = min(width, arr.size)
    idx = np.linspace(0, arr.size - 1, cols).astype(int)
    grid = [[" "] * cols for _ in range(height)]
    upper_rows = _scale_rows(envelope.upper[idx], lo, hi, height)
    lower_rows = _scale_rows(envelope.lower[idx], lo, hi, height)
    series_rows = _scale_rows(arr[idx], lo, hi, height)
    for col in range(cols):
        grid[upper_rows[col]][col] = "-"
        grid[lower_rows[col]][col] = "-"
        grid[series_rows[col]][col] = "*"
    lines = ["".join(row).rstrip() for row in grid]
    if title:
        lines.insert(0, f"--- {title} ---")
    return "\n".join(lines)


def ascii_warping_grid(path: list[tuple[int, int]], n: int, m: int,
                       k: int | None = None) -> str:
    """Draw a warping path (``#``) inside its admissible band (``.``)."""
    if n < 1 or m < 1:
        raise ValueError("grid dimensions must be positive")
    cells = set(path)
    lines = []
    for i in range(n):
        row = []
        for j in range(m):
            if (i, j) in cells:
                row.append("#")
            elif k is None or abs(i - j) <= k:
                row.append(".")
            else:
                row.append(" ")
        lines.append("".join(row))
    return "\n".join(lines)


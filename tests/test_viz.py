"""Tests for the terminal visualisation helpers."""

import numpy as np
import pytest

from repro.core.envelope import k_envelope
from repro.dtw.path import warping_path
from repro.viz import ascii_envelope, ascii_series, ascii_warping_grid


class TestAsciiSeries:
    def test_dimensions(self, rng):
        out = ascii_series(rng.normal(size=200), height=10, width=40)
        lines = out.splitlines()
        assert len(lines) == 10
        assert max(len(line) for line in lines) <= 40

    def test_extremes_on_border_rows(self):
        out = ascii_series([0.0, 10.0, 0.0], height=5, width=3)
        lines = out.splitlines()
        assert "*" in lines[0]       # the peak
        assert "*" in lines[-1]      # the valleys

    def test_nan_leaves_gap(self):
        out = ascii_series([1.0, np.nan, 1.0], height=3, width=3)
        column_chars = {line[1] if len(line) > 1 else " " for line in out.splitlines()}
        assert column_chars == {" "}

    def test_title_line(self, rng):
        out = ascii_series(rng.normal(size=5), title="hello")
        assert out.splitlines()[0] == "--- hello ---"

    def test_constant_series_single_row(self):
        out = ascii_series([2.0] * 10, height=4, width=10)
        starred = [line for line in out.splitlines() if "*" in line]
        assert len(starred) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            ascii_series([])
        with pytest.raises(ValueError, match=">= 2"):
            ascii_series([1.0, 2.0], height=1)
        with pytest.raises(ValueError, match="finite"):
            ascii_series([np.nan, np.nan])


class TestAsciiEnvelope:
    def test_contains_band_and_series(self, rng):
        x = np.cumsum(rng.normal(size=50))
        out = ascii_envelope(x, k_envelope(x, 4), height=10, width=50)
        assert "-" in out
        assert "*" in out

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="differ"):
            ascii_envelope(rng.normal(size=5), k_envelope(rng.normal(size=6), 1))


class TestAsciiWarpingGrid:
    def test_path_cells_marked(self, rng):
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        path = warping_path(x, y, k=2)
        out = ascii_warping_grid(path, 8, 8, k=2)
        lines = out.splitlines()
        assert len(lines) == 8
        for i, j in path:
            assert lines[i][j] == "#"

    def test_band_marked_with_dots(self):
        out = ascii_warping_grid([(0, 0), (1, 1)], 2, 2, k=1)
        assert "." in out or "#" in out

    def test_outside_band_blank(self):
        out = ascii_warping_grid([(0, 0)], 5, 5, k=0)
        lines = out.splitlines()
        assert lines[0][4] == " "

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ascii_warping_grid([], 0, 3)


"""Multidimensional indexing: the R*-tree and the GEMINI warping index."""

from .gemini import WarpingIndex
from .rstartree import RStarTree
from .stats import QueryStats

__all__ = [
    "WarpingIndex",
    "RStarTree",
    "QueryStats",
]

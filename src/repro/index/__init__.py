"""Multidimensional indexing: R*-tree, grid file, cluster index, GEMINI."""

from .cluster import ClusterIndex
from .gemini import WarpingIndex
from .gridfile import GridFile
from .linear_scan import LinearScan
from .rstartree import RStarTree
from .stats import QueryStats

__all__ = [
    "WarpingIndex",
    "ClusterIndex",
    "GridFile",
    "LinearScan",
    "RStarTree",
    "QueryStats",
]

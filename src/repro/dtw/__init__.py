"""Dynamic Time Warping distances, kernels, and warping paths."""

from .distance import (
    dtw_distance,
    ldtw_distance,
    ldtw_distance_batch,
    ldtw_refiner,
    utw_distance,
    warping_distance,
)
from .path import cost_matrix, is_valid_path, path_cost, warping_path

__all__ = [
    "dtw_distance",
    "ldtw_distance",
    "ldtw_distance_batch",
    "ldtw_refiner",
    "utw_distance",
    "warping_distance",
    "cost_matrix",
    "is_valid_path",
    "path_cost",
    "warping_path",
]

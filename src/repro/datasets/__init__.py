"""Synthetic dataset families (UCR-archive stand-ins) and random walks."""

from .generators import GENERATORS, dataset_names, make_dataset, random_walks

__all__ = [
    "GENERATORS",
    "dataset_names",
    "make_dataset",
    "random_walks",
]

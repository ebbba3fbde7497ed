"""repro — Warping Indexes with Envelope Transforms for Query by Humming.

A full reproduction of Zhu & Shasha (SIGMOD 2003): container-invariant
envelope transforms for exact DTW indexing (New_PAA and the generic
sign-split construction for DFT/DWT/SVD), the GEMINI warping index on a
from-scratch R*-tree, and a complete query-by-humming system — melody
corpus, MIDI IO, hum synthesis, pitch tracking, and the contour-string
baseline the paper compares against.

Quick start::

    from repro import QueryByHummingSystem, generate_corpus, segment_corpus
    melodies = segment_corpus(generate_corpus(50, seed=1))
    system = QueryByHummingSystem(melodies, delta=0.1)
    results, stats = system.query(hum_pitch_series, k=10)
"""

from .core import (
    DFTTransform,
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
    SVDTransform,
    k_envelope,
    lb_envelope_transform,
    lb_keogh,
    normalize,
)
from .datasets import random_walks
from .dtw import dtw_distance, ldtw_distance, warping_distance
from .engine import QueryEngine
from .hum import SingerProfile, hum_melody, synthesize_melody, track_pitch
from .index import RStarTree, WarpingIndex
from .music import (
    ContourIndex,
    Melody,
    Note,
    contour_string,
    generate_corpus,
    segment_corpus,
)
from .index.subsequence import SubsequenceIndex
from .qbh import QueryByHummingSystem

__version__ = "1.0.0"

__all__ = [
    "DFTTransform",
    "KeoghPAAEnvelopeTransform",
    "NewPAAEnvelopeTransform",
    "SignSplitEnvelopeTransform",
    "SVDTransform",
    "k_envelope",
    "lb_envelope_transform",
    "lb_keogh",
    "normalize",
    "random_walks",
    "dtw_distance",
    "ldtw_distance",
    "warping_distance",
    "QueryEngine",
    "SingerProfile",
    "hum_melody",
    "synthesize_melody",
    "track_pitch",
    "RStarTree",
    "WarpingIndex",
    "ContourIndex",
    "Melody",
    "Note",
    "contour_string",
    "generate_corpus",
    "segment_corpus",
    "SubsequenceIndex",
    "QueryByHummingSystem",
    "__version__",
]

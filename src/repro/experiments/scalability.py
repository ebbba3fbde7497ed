"""Index-cost experiments: Figures 8-10 and the size-scaling curve.

All four sweeps measure the paper's implementation-free costs —
candidates retrieved and page accesses — through the warping index's
filter step, comparing the New_PAA and Keogh_PAA envelope transforms.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.envelope_transforms import (
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
)
from ..core.normal_form import NormalForm
from ..datasets.generators import random_walks
from ..hum.singer import SingerProfile, hum_melody
from ..index.gemini import WarpingIndex
from ..music.corpus import generate_corpus, segment_corpus
from .config import ExperimentScale

__all__ = [
    "build_music_database",
    "sweep_filter_costs",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_size_scaling",
    "INDEX_LENGTH",
    "INDEX_DIMS",
    "THRESHOLDS",
]

INDEX_LENGTH = 128
INDEX_DIMS = 8
THRESHOLDS = (0.2, 0.8)
#: R*-tree page capacity of the size-scaling curve (the index default),
#: and the page size its linear-scan column counts in.
_PAGE_CAPACITY = 50


def build_music_database(size: int, *, seed: int = 9):
    """A large melody database (one series per segmented phrase window)."""
    per_song = 20
    n_songs = (size + per_song - 1) // per_song
    melodies = segment_corpus(
        generate_corpus(n_songs, seed=seed), per_song=per_song, seed=seed
    )[:size]
    return [m.to_time_series(8) for m in melodies], melodies


def sweep_filter_costs(series, queries, sweep_deltas, *,
                       thresholds=THRESHOLDS) -> tuple[dict, dict]:
    """Candidates and page accesses per (delta, threshold) point.

    Returns ``(rows, results)``: printable columns and the raw per-
    point ``{"New": (cand, pages), "Keogh": (cand, pages)}`` map.
    """
    rows = {
        "width": [], "threshold": [],
        "cand_Keogh": [], "cand_New": [],
        "pages_Keogh": [], "pages_New": [],
    }
    results = {}
    for delta in sweep_deltas:
        indexes = {
            "New": WarpingIndex(
                series, delta=delta,
                env_transform=NewPAAEnvelopeTransform(INDEX_LENGTH, INDEX_DIMS),
                normal_form=NormalForm(length=INDEX_LENGTH),
            ),
            "Keogh": WarpingIndex(
                series, delta=delta,
                env_transform=KeoghPAAEnvelopeTransform(INDEX_LENGTH, INDEX_DIMS),
                normal_form=NormalForm(length=INDEX_LENGTH),
            ),
        }
        for eps in thresholds:
            radius = eps * np.sqrt(INDEX_LENGTH)
            point = {}
            for method, index in indexes.items():
                cand = pages = 0
                for query in queries:
                    _, stats = index.filter_query(query, radius)
                    cand += stats.candidates
                    pages += stats.page_accesses
                point[method] = (cand / len(queries), pages / len(queries))
            rows["width"].append(delta)
            rows["threshold"].append(eps)
            rows["cand_Keogh"].append(round(point["Keogh"][0], 1))
            rows["cand_New"].append(round(point["New"][0], 1))
            rows["pages_Keogh"].append(round(point["Keogh"][1], 1))
            rows["pages_New"].append(round(point["New"][1], 1))
            results[(delta, eps)] = point
    return rows, results


def _hum_queries(melodies, n_queries: int, *, seed: int):
    rng = np.random.default_rng(seed)
    profile = SingerProfile.better()
    targets = rng.choice(len(melodies), size=n_queries, replace=False)
    return [hum_melody(melodies[int(t)], profile, rng) for t in targets]


def run_fig8(scale: ExperimentScale, *, seed: int = 23) -> tuple[dict, dict]:
    """Figure 8: candidates on the quality corpus (paper's 1000 melodies)."""
    melodies = segment_corpus(
        generate_corpus(scale.corpus_songs, seed=1),
        per_song=scale.corpus_per_song, seed=1,
    )
    series = [m.to_time_series(8) for m in melodies]
    queries = _hum_queries(melodies, scale.fig8_queries, seed=seed)
    return sweep_filter_costs(series, queries, scale.sweep_deltas)


def run_fig9(scale: ExperimentScale, *, seed: int = 31) -> tuple[dict, dict]:
    """Figure 9: candidates and pages on the large music database."""
    series, melodies = build_music_database(scale.fig9_db)
    queries = _hum_queries(melodies, scale.fig8_queries, seed=seed)
    return sweep_filter_costs(series, queries, scale.sweep_deltas)


def run_fig10(scale: ExperimentScale, *, seed: int = 17) -> tuple[dict, dict]:
    """Figure 10: candidates and pages on the random-walk database."""
    series = list(random_walks(scale.fig10_db, INDEX_LENGTH, seed=seed))
    queries = random_walks(scale.fig8_queries, INDEX_LENGTH, seed=seed + 1)
    return sweep_filter_costs(series, queries, scale.sweep_deltas)


def run_size_scaling(
    scale: ExperimentScale, *, delta: float = 0.1,
    epsilon_factor: float = 0.4, seed: int = 91,
) -> dict:
    """Page accesses vs database size, warping index vs linear scan.

    A linear scan reads every page of rows on every query, so its
    column is ``ceil(size / _PAGE_CAPACITY)``.
    """
    max_size = scale.fig10_db
    sizes = [max(1, max_size // 8), max(1, max_size // 4),
             max(1, max_size // 2), max_size]
    all_series = list(random_walks(max_size, INDEX_LENGTH, seed=seed))
    queries = random_walks(scale.fig8_queries, INDEX_LENGTH, seed=seed + 1)
    radius = epsilon_factor * np.sqrt(INDEX_LENGTH)
    rows = {"db_size": [], "pages_rstar": [], "pages_scan": [],
            "candidates": []}
    for size in sizes:
        subset = all_series[:size]
        rstar = WarpingIndex(subset, delta=delta, capacity=_PAGE_CAPACITY,
                             normal_form=NormalForm(length=INDEX_LENGTH))
        pages_r = cand = 0
        for q in queries:
            _, stats_r = rstar.filter_query(q, radius)
            pages_r += stats_r.page_accesses
            cand += stats_r.candidates
        n_queries = len(queries)
        rows["db_size"].append(size)
        rows["pages_rstar"].append(round(pages_r / n_queries, 1))
        rows["pages_scan"].append(float(math.ceil(size / _PAGE_CAPACITY)))
        rows["candidates"].append(round(cand / n_queries, 1))
    return rows

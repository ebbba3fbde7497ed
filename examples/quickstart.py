"""Quickstart: build a melody database and query it by humming.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    QueryByHummingSystem,
    SingerProfile,
    generate_corpus,
    hum_melody,
    segment_corpus,
)


def main() -> None:
    # 1. Build a music database: 20 songs, segmented into short
    #    melodic sections (whole-sequence matching, as in the paper).
    print("Generating a 20-song corpus ...")
    songs = generate_corpus(20, seed=7)
    melodies = segment_corpus(songs, per_song=20, seed=7)
    print(f"  {len(songs)} songs -> {len(melodies)} melodies of "
          f"{min(len(m) for m in melodies)}-{max(len(m) for m in melodies)} notes")

    # 2. Index it.  delta is the DTW warping width; the New_PAA
    #    envelope transform is the default.
    system = QueryByHummingSystem(melodies, delta=0.1)
    print(f"  indexed {len(system)} melodies "
          f"({system.index.feature_dim} feature dims)")

    # 3. Simulate a user humming melody #123 — off-key, off-tempo,
    #    with sloppy note timing (that is what the index is for).
    rng = np.random.default_rng(0)
    target = 123
    hum = hum_melody(melodies[target], SingerProfile.better(), rng)
    print(f"\nHumming {melodies[target].name!r} "
          f"({hum.size} pitch frames at 10 ms) ...")

    # 4. Query: top-10 most similar melodies under shift-invariant,
    #    tempo-invariant, locally-warped DTW.  The filter cascade's
    #    lower bounds rule most melodies out before any exact DTW.
    results, stats = system.query(hum, k=10)
    print(f"  lower bounds pruned {stats.pruned_total} of "
          f"{stats.corpus_size} melodies, "
          f"{stats.dtw_computations} exact DTW computations")
    print("\nTop matches:")
    for rank, (name, distance) in enumerate(results[:5], start=1):
        marker = "  <-- the hummed melody" if name == melodies[target].name else ""
        print(f"  {rank}. {name}  (DTW distance {distance:.2f}){marker}")


if __name__ == "__main__":
    main()

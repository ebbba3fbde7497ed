"""Full query-by-humming pipeline, microphone to answer.

Walks the complete paper architecture on synthetic audio:

    hum audio -> pitch tracking -> normal form -> filter cascade ->
    exact DTW -> ranked melodies

and contrasts it with the contour-string baseline fed by automatic
note segmentation, showing why the paper abandons that route.

Run with:  python examples/query_by_humming.py
"""

import numpy as np

from repro import (
    ContourIndex,
    QueryByHummingSystem,
    SingerProfile,
    contour_string,
    generate_corpus,
    hum_melody,
    segment_corpus,
    track_pitch,
)
from repro.hum.segmentation import segment_notes
from repro.hum.synthesis import synthesize_pitch_series


def main() -> None:
    melodies = segment_corpus(generate_corpus(25, seed=11), per_song=20, seed=11)
    system = QueryByHummingSystem(melodies, delta=0.1)
    contour_index = ContourIndex(melodies)
    rng = np.random.default_rng(5)

    target = 250
    print(f"Target melody: {melodies[target].name!r} "
          f"({len(melodies[target])} notes)")

    # --- the user hums (simulated singer) and we record audio -------
    sung_frames = hum_melody(melodies[target], SingerProfile.better(), rng)
    wave = synthesize_pitch_series(sung_frames, rng=rng)
    seconds = wave.size / 8000
    print(f"Recorded {seconds:.1f} s of audio at 8 kHz")

    # --- front end: 10 ms pitch tracking ----------------------------
    track = track_pitch(wave)
    print(f"Pitch tracker: {len(track)} frames, "
          f"{track.voiced_fraction:.0%} voiced")
    pitch_series = track.pitch_series()

    # --- approach 1: time-series matching (the paper's) -------------
    results, stats = system.query(pitch_series, k=5)
    print("\nTime-series approach (DTW warping index):")
    print(f"  pruned={stats.pruned_total} of {stats.corpus_size} "
          f"refined={stats.dtw_computations}")
    for rank, (name, dist) in enumerate(results, start=1):
        hit = "  <-- target" if name == melodies[target].name else ""
        print(f"  {rank}. {name} (distance {dist:.2f}){hit}")

    # --- approach 2: contour baseline --------------------------------
    print("\nContour approach (note segmentation + edit distance):")
    try:
        segmented = segment_notes(track.pitches)
        print(f"  segmentation produced {len(segmented)} notes "
              f"(true melody has {len(melodies[target])})")
        query_contour = contour_string(segmented)
        ranked = contour_index.rank(query_contour)[:5]
        for rank, (idx, dist) in enumerate(ranked, start=1):
            hit = "  <-- target" if idx == target else ""
            print(f"  {rank}. {melodies[idx].name} (edit distance {dist}){hit}")
        print(f"  target rank: "
              f"{contour_index.rank_of(query_contour, target)}")
    except ValueError as exc:
        print(f"  transcription failed: {exc}")


if __name__ == "__main__":
    main()

"""Synthetic song corpus — the stand-in for the paper's music data.

The paper's quality experiments use 50 hand-entered Beatles songs
segmented into 1000 melodies of 15-30 notes; the scalability experiment
uses 35,000 melodies from Internet MIDI files.  Neither dataset ships
with the paper, so this module generates tonal pop-like songs with the
statistical properties the experiments rely on: a small pitch alphabet
from a key/scale, step-biased motion, phrase structure with repetition,
and simple rhythm patterns.  Generation is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .melody import Melody

__all__ = ["Song", "SongGenerator", "generate_corpus", "segment_corpus", "EXAMPLE_PHRASE"]

SCALES = {
    "major": (0, 2, 4, 5, 7, 9, 11),
    "natural_minor": (0, 2, 3, 5, 7, 8, 10),
    "major_pentatonic": (0, 2, 4, 7, 9),
    "minor_pentatonic": (0, 3, 5, 7, 10),
}

#: Common one-bar rhythm cells (in beats), concatenated to fill phrases.
RHYTHM_CELLS = (
    (1.0, 1.0, 1.0, 1.0),
    (2.0, 1.0, 1.0),
    (1.0, 1.0, 2.0),
    (1.5, 0.5, 1.0, 1.0),
    (0.5, 0.5, 1.0, 1.0, 1.0),
    (2.0, 2.0),
    (1.0, 0.5, 0.5, 2.0),
    (3.0, 1.0),
)

#: A short built-in phrase with the dip-and-rise contour of the paper's
#: "Hey Jude" illustration (Figures 1-3); used by examples and tests.
EXAMPLE_PHRASE = Melody(
    [
        (60, 2.0), (57, 2.0), (57, 1.0), (60, 1.0), (62, 1.0), (55, 2.0),
        (55, 2.0), (57, 1.0), (59, 1.0), (64, 2.0), (64, 1.0), (62, 2.0),
    ],
    name="example-phrase",
)


@dataclass
class Song:
    """A generated song: its full melody and its phrase segmentation."""

    name: str
    key: int
    mode: str
    phrases: list[Melody] = field(default_factory=list)

    @property
    def melody(self) -> Melody:
        notes = []
        for phrase in self.phrases:
            notes.extend(phrase.notes)
        return Melody(notes, name=self.name)

    @property
    def note_count(self) -> int:
        return sum(len(p) for p in self.phrases)


class SongGenerator:
    """Deterministic generator of tonal pop-like songs.

    Parameters
    ----------
    seed:
        Seed of the internal random generator; same seed, same corpus.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def _scale_pitches(self, key: int, mode: str) -> np.ndarray:
        """Scale pitches across ~2 octaves around the key center."""
        degrees = SCALES[mode]
        pitches = [key + 12 * octave + d for octave in (-1, 0, 1) for d in degrees]
        return np.array(sorted(p for p in pitches if 48 <= p <= 84), dtype=float)

    def _phrase(
        self, scale: np.ndarray, n_notes: int, start_index: int
    ) -> tuple[Melody, int]:
        """One phrase: a step-biased walk over scale indices."""
        rng = self._rng
        # Steps of +-1 dominate; occasional leaps; slight downward pull
        # when high, upward when low, to stay in tessitura.
        steps = np.array([-4, -3, -2, -1, 0, 1, 2, 3, 4])
        durations: list[float] = []
        while len(durations) < n_notes:
            durations.extend(RHYTHM_CELLS[rng.integers(len(RHYTHM_CELLS))])
        durations = durations[:n_notes]
        index = start_index
        notes = []
        for i in range(n_notes):
            centre_pull = (len(scale) / 2 - index) / len(scale)
            weights = np.array([2, 4, 10, 22, 8, 22, 10, 4, 2], dtype=float)
            # Bias the walk back toward the middle of the range.
            weights *= np.exp(steps * centre_pull)
            weights /= weights.sum()
            step = rng.choice(steps, p=weights)
            index = int(np.clip(index + step, 0, len(scale) - 1))
            if i == n_notes - 1 and rng.random() < 0.6:
                # Cadence: resolve near the tonic region of the scale.
                index = int(np.clip(len(scale) // 2 + rng.integers(-1, 2), 0,
                                    len(scale) - 1))
            notes.append((scale[index], durations[i]))
        return Melody(notes), index

    def song(self, name: str, *, n_phrases: int = 10,
             notes_per_phrase: tuple[int, int] = (7, 11)) -> Song:
        """Generate one song with an AAB-style repetition structure."""
        rng = self._rng
        key = int(rng.integers(55, 72))
        mode = list(SCALES)[rng.integers(len(SCALES))]
        scale = self._scale_pitches(key, mode)
        song = Song(name=name, key=key, mode=mode)
        motifs: list[Melody] = []
        index = len(scale) // 2
        for p in range(n_phrases):
            reuse = motifs and rng.random() < 0.4
            if reuse:
                motif = motifs[rng.integers(len(motifs))]
                if rng.random() < 0.5:
                    # Vary the repetition: transpose within the scale by
                    # snapping a shifted copy back onto scale pitches.
                    shift = rng.choice([-4, -3, 3, 4])
                    snapped = [
                        (scale[np.abs(scale - (n.pitch + shift)).argmin()],
                         n.duration)
                        for n in motif
                    ]
                    phrase = Melody(snapped)
                else:
                    phrase = motif
            else:
                n_notes = int(rng.integers(notes_per_phrase[0],
                                           notes_per_phrase[1] + 1))
                phrase, index = self._phrase(scale, n_notes, index)
                motifs.append(phrase)
            song.phrases.append(
                Melody(phrase.notes, name=f"{name}/p{p}")
            )
        return song


def generate_corpus(n_songs: int = 50, *, seed: int = 0,
                    n_phrases: int = 10) -> list[Song]:
    """Generate a deterministic corpus of *n_songs* songs."""
    if n_songs < 1:
        raise ValueError(f"n_songs must be >= 1, got {n_songs}")
    gen = SongGenerator(seed)
    return [gen.song(f"song{idx:03d}", n_phrases=n_phrases)
            for idx in range(n_songs)]


def segment_corpus(
    songs: list[Song],
    *,
    min_notes: int = 15,
    max_notes: int = 30,
    per_song: int = 20,
    seed: int = 0,
) -> list[Melody]:
    """Cut songs into query-sized melodies (the paper's 1000 pieces).

    Windows of consecutive phrases are merged until they hold between
    *min_notes* and *max_notes* notes; *per_song* windows are taken per
    song at rotating phrase offsets, so 50 songs x 20 = 1000 melodies.
    """
    if min_notes < 1 or max_notes < min_notes:
        raise ValueError("need 1 <= min_notes <= max_notes")
    if per_song < 1:
        raise ValueError(f"per_song must be >= 1, got {per_song}")
    rng = np.random.default_rng(seed)
    melodies = []
    for song in songs:
        phrases = song.phrases
        produced = 0
        start = 0
        attempts = 0
        while produced < per_song and attempts < per_song * 10:
            attempts += 1
            start = (start + 1) % len(phrases)
            notes = []
            stop = start
            while len(notes) < min_notes and stop < len(phrases):
                notes.extend(phrases[stop].notes)
                stop += 1
            if len(notes) < min_notes:
                continue
            if len(notes) > max_notes:
                offset = int(rng.integers(0, len(notes) - max_notes + 1))
                notes = notes[offset : offset + max_notes]
            melodies.append(
                Melody(notes, name=f"{song.name}#m{produced:02d}")
            )
            produced += 1
    return melodies

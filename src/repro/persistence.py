"""Persistence: melody corpora on disk.

Melody corpora round-trip through a directory of Standard MIDI Files
plus a manifest — exercising the MIDI substrate the way the paper's own
database-building step did.  Warping indexes persist in one format, the
columnar store (:mod:`repro.store`): build one with
:class:`~repro.ingest.StreamingIndexBuilder` (or ``repro ingest``) and
open it with :meth:`~repro.index.gemini.WarpingIndex.from_store`.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence

from .music.melody import Melody
from .music.midi import MidiFile

__all__ = [
    "save_corpus",
    "load_corpus",
    "melodies_from_midi_directory",
]

_FORMAT_VERSION = 1


def save_corpus(melodies: Sequence[Melody], directory: str | os.PathLike) -> None:
    """Write melodies as Standard MIDI Files plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for i, melody in enumerate(melodies):
        filename = f"melody_{i:05d}.mid"
        with open(os.path.join(directory, filename), "wb") as handle:
            handle.write(MidiFile.from_melody(melody).to_bytes())
        manifest.append({"file": filename, "name": melody.name})
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump({"version": _FORMAT_VERSION, "melodies": manifest}, handle,
                  indent=2)


def melodies_from_midi_directory(
    directory: str | os.PathLike,
    *,
    on_error: str = "skip",
) -> list[Melody]:
    """Extract one melody per ``.mid``/``.midi`` file of a directory.

    This is the paper's database-building step ("we extracted notes
    from the melody channel of MIDI files we collected from the
    Internet"): files are scanned in sorted order, the busiest channel
    of each is flattened to a monophonic melody, and the file stem
    becomes the melody name.

    Parameters
    ----------
    directory:
        Directory containing MIDI files (non-MIDI files are ignored).
    on_error:
        ``"skip"`` (default) drops unparseable files — Internet MIDI
        is messy; ``"raise"`` propagates the first failure.

    Raises
    ------
    ValueError
        If no melody could be extracted at all, or *on_error* is
        ``"raise"`` and a file fails.
    """
    if on_error not in ("skip", "raise"):
        raise ValueError(f"on_error must be 'skip' or 'raise', got {on_error!r}")
    melodies: list[Melody] = []
    for name in sorted(os.listdir(directory)):
        if not name.lower().endswith((".mid", ".midi")):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as handle:
                midi = MidiFile.from_bytes(handle.read())
            melodies.append(midi.to_melody(name=os.path.splitext(name)[0]))
        except ValueError:
            if on_error == "raise":
                raise
    if not melodies:
        raise ValueError(f"no usable MIDI melodies found in {directory}")
    return melodies


def load_corpus(directory: str | os.PathLike) -> list[Melody]:
    """Read a corpus written by :func:`save_corpus`.

    Note: MIDI quantises pitches to integers, so fractional (hummed)
    pitches do not survive the round trip — corpora are score data.
    """
    with open(os.path.join(directory, "manifest.json")) as handle:
        manifest = json.load(handle)
    if manifest.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported corpus version {manifest.get('version')!r}"
        )
    melodies = []
    for entry in manifest["melodies"]:
        with open(os.path.join(directory, entry["file"]), "rb") as handle:
            midi = MidiFile.from_bytes(handle.read())
        melodies.append(midi.to_melody(name=entry["name"]))
    return melodies

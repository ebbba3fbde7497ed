"""Music substrate: melodies, MIDI IO, synthetic corpus, contour baseline."""

from .contour import ContourIndex, contour_string, edit_distance
from .corpus import EXAMPLE_PHRASE, Song, SongGenerator, generate_corpus, segment_corpus
from .melody import Melody, Note, hz_to_midi, midi_to_hz
from .midi import MidiFile, melodies_from_midi_bytes, melody_to_midi_bytes

__all__ = [
    "ContourIndex",
    "contour_string",
    "edit_distance",
    "EXAMPLE_PHRASE",
    "Song",
    "SongGenerator",
    "generate_corpus",
    "segment_corpus",
    "Melody",
    "Note",
    "hz_to_midi",
    "midi_to_hz",
    "MidiFile",
    "melodies_from_midi_bytes",
    "melody_to_midi_bytes",
]

"""Humming substrate: singer models, audio synthesis, pitch tracking."""

from .degrade import (
    DEFAULT_SEVERITIES,
    SCENARIOS,
    DegradationScenario,
    degrade,
    scenario_names,
)
from .pitch_tracking import PitchTrack, track_pitch
from .segmentation import segment_notes
from .singer import SingerProfile, hum_melody
from .synthesis import synthesize_melody, synthesize_pitch_series

__all__ = [
    "DEFAULT_SEVERITIES",
    "SCENARIOS",
    "DegradationScenario",
    "degrade",
    "scenario_names",
    "PitchTrack",
    "track_pitch",
    "segment_notes",
    "SingerProfile",
    "hum_melody",
    "synthesize_melody",
    "synthesize_pitch_series",
]

"""Parameterized hum-degradation scenarios for quality workloads.

The quality-observability layer needs queries that are *wrong in a
known way*: a clean hum of a known database melody, perturbed by one
named error mode at a controlled severity, so recall@k can be charted
per scenario × severity (the scenario matrix that ``repro obs
report`` prints from a quality trace).

Each scenario is a pure function on a frame-level pitch series (MIDI
semitones, 100 frames/s — the output of
:func:`repro.hum.singer.hum_melody` or the pitch tracker).  All are:

* **named** — looked up in :data:`SCENARIOS` by string, so CLI flags,
  span attributes, and bench history rows agree on identity;
* **seeded** — every random choice comes from the supplied generator,
  so a (scenario, severity, seed) triple reproduces byte-identically;
* **severity-scaled** — ``severity`` in ``[0, 1]`` interpolates from
  "no perturbation" (0.0 returns a copy) to the worst case the mode
  models, e.g. a ±6-semitone transposition or 40% tempo error.

The modes mirror how real hums fail (ROADMAP item 5): singers
transpose and drift, rush or drag the tempo, drop or split notes, and
pitch trackers jitter and octave-flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DegradationScenario",
    "SCENARIOS",
    "DEFAULT_SEVERITIES",
    "degrade",
    "scenario_names",
]

#: Severity grid used by the scenario matrix when none is given.
DEFAULT_SEVERITIES = (0.25, 0.5, 1.0)

# Worst-case (severity = 1.0) magnitudes for each error mode.
_MAX_TRANSPOSE_SEMITONES = 6.0   # global offset, sign chosen per query
_MAX_DRIFT_SEMITONES = 2.0       # slow intonation ramp over the clip
_MAX_TEMPO_ERROR = 0.4           # ±40% global tempo error
_MAX_DROPPED_SEGMENTS = 3        # contiguous chunks removed
_MAX_SPLIT_EVENTS = 4            # spurious note-boundary insertions
_MAX_JITTER_STD = 0.8            # per-frame Gaussian noise, semitones
_MAX_OCTAVE_ERROR_PROB = 0.02    # per-frame ±12-semitone flips


def _as_pitches(pitch_series) -> np.ndarray:
    pitches = np.asarray(pitch_series, dtype=float)
    if pitches.ndim != 1 or pitches.size < 2:
        raise ValueError("pitch series must be 1-D with at least 2 frames")
    return pitches


def _transposition(pitches: np.ndarray, severity: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Global key error plus a slow intonation drift ramp."""
    sign = rng.choice((-1.0, 1.0))
    offset = sign * severity * _MAX_TRANSPOSE_SEMITONES
    drift = (rng.choice((-1.0, 1.0)) * severity * _MAX_DRIFT_SEMITONES
             * np.linspace(0.0, 1.0, pitches.size))
    return pitches + offset + drift


def _tempo(pitches: np.ndarray, severity: float,
           rng: np.random.Generator) -> np.ndarray:
    """Global tempo error: uniformly stretch or compress the clip."""
    factor = 1.0 + rng.choice((-1.0, 1.0)) * severity * _MAX_TEMPO_ERROR
    n_out = max(2, int(round(pitches.size * factor)))
    src = np.linspace(0.0, pitches.size - 1.0, n_out)
    return np.interp(src, np.arange(pitches.size), pitches)


def _note_drop(pitches: np.ndarray, severity: float,
               rng: np.random.Generator) -> np.ndarray:
    """Forgotten notes: remove contiguous chunks of the performance."""
    n_drops = int(round(severity * _MAX_DROPPED_SEGMENTS))
    if n_drops == 0:
        return pitches.copy()
    out = pitches
    chunk = max(2, pitches.size // 12)
    for _ in range(n_drops):
        if out.size - chunk < 2:
            break
        start = int(rng.integers(0, out.size - chunk))
        out = np.delete(out, slice(start, start + chunk))
    return out


def _note_split(pitches: np.ndarray, severity: float,
                rng: np.random.Generator) -> np.ndarray:
    """Spurious note boundaries: short off-pitch ornaments inserted
    where the singer broke one note into several."""
    n_splits = int(round(severity * _MAX_SPLIT_EVENTS))
    if n_splits == 0:
        return pitches.copy()
    out = pitches.copy()
    width = max(2, out.size // 20)
    for _ in range(n_splits):
        start = int(rng.integers(0, max(1, out.size - width)))
        step = rng.choice((-2.0, -1.0, 1.0, 2.0))
        out[start:start + width] += step
    return out


def _jitter(pitches: np.ndarray, severity: float,
            rng: np.random.Generator) -> np.ndarray:
    """Pitch-tracker noise: per-frame jitter plus rare octave flips."""
    noisy = pitches + rng.normal(
        0.0, severity * _MAX_JITTER_STD, size=pitches.size)
    flips = rng.random(pitches.size) < severity * _MAX_OCTAVE_ERROR_PROB
    noisy[flips] += rng.choice((-12.0, 12.0), size=int(flips.sum()))
    return noisy


@dataclass(frozen=True)
class DegradationScenario:
    """One named hum error mode.

    ``apply(pitches, severity, rng)`` returns a new pitch series; the
    input is never modified.
    """

    name: str
    description: str
    apply: Callable[[np.ndarray, float, np.random.Generator], np.ndarray] \
        = field(repr=False)

    def __call__(self, pitch_series, severity: float,
                 rng: np.random.Generator) -> np.ndarray:
        pitches = _as_pitches(pitch_series)
        if not 0.0 <= severity <= 1.0:
            raise ValueError(f"severity must be in [0, 1], got {severity}")
        if severity == 0.0:
            return pitches.copy()
        return self.apply(pitches, severity, rng)


SCENARIOS: dict[str, DegradationScenario] = {
    s.name: s
    for s in (
        DegradationScenario(
            "transposition",
            "global key offset plus slow intonation drift",
            _transposition,
        ),
        DegradationScenario(
            "tempo",
            "global tempo error (uniform stretch/compress)",
            _tempo,
        ),
        DegradationScenario(
            "note_drop",
            "forgotten notes (contiguous chunks removed)",
            _note_drop,
        ),
        DegradationScenario(
            "note_split",
            "spurious note boundaries (short off-pitch ornaments)",
            _note_split,
        ),
        DegradationScenario(
            "jitter",
            "pitch-tracker noise and rare octave flips",
            _jitter,
        ),
    )
}


def scenario_names() -> tuple[str, ...]:
    """Registry order of the named scenarios."""
    return tuple(SCENARIOS)


def degrade(pitch_series, scenario: str, severity: float, *,
            seed: int | None = None,
            rng: np.random.Generator | None = None) -> np.ndarray:
    """Apply one named scenario at *severity* to a pitch series.

    Pass either *seed* (fresh deterministic generator) or an existing
    *rng* — not both; with neither, an unseeded generator is used.
    """
    try:
        mode = SCENARIOS[scenario]
    except KeyError:
        known = ", ".join(SCENARIOS)
        raise ValueError(
            f"unknown scenario {scenario!r} (known: {known})") from None
    if seed is not None and rng is not None:
        raise ValueError("pass either seed or rng, not both")
    if rng is None:
        rng = np.random.default_rng(seed)
    return mode(pitch_series, severity, rng)

"""Generated case pool for the lower-bound property suite.

Three series families — random walks, sine mixtures, and synthetic
hums — produce hundreds of seeded (query, candidate) pairs.  For each
bundle (one query against a candidate matrix) the exact banded DTW and
every cascade stage bound are precomputed once per session, so each
invariant test sweeps the whole pool cheaply.

Every case is bounded once per body this host has (the native library
and the NumPy fallback), so each invariant holds on both.

Everything is seeded: the suite is deterministic run to run (the CI
workflow additionally pins ``PYTHONHASHSEED``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.envelope import Envelope, batch_envelope, k_envelope
from repro.core.envelope_transforms import (
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
    envelope_paa,
    frame_means,
    row_paa_frames,
)
from repro.core.lower_bounds import lb_envelope_transform
from repro.core.normal_form import NormalForm
from repro.dtw.distance import ldtw_distance
from repro.engine.stages import (
    lb_envelope_batch,
    lb_first_last_batch,
    lb_keogh_two_sided,
    lb_lemire_batch,
    lb_new_paa_two_sided,
    query_sides,
)
from repro.hum.singer import SingerProfile, hum_melody
from repro.music.corpus import generate_corpus, segment_corpus
from tests.conftest import bodies, body

#: Pool geometry: 3 families x QUERIES x CANDIDATES cases per invariant.
LENGTH = 64
BAND = 6
FEATURES = 8
QUERIES_PER_FAMILY = 8
CANDIDATES_PER_QUERY = 30

NORMAL_FORM = NormalForm(length=LENGTH)

#: Envelope-family bounds on float64 rows in provably-monotone
#: tightness order, ending at the exact DTW (each is pointwise >= its
#: predecessor).  ``lb_keogh_eq`` is Lemma 2 one way (EQ, the query's
#: envelope against each row); the ``lb_keogh`` stage is max(EQ, EC).
#: ``new_paa_eq`` is the ``new_paa`` stage's query side; the stage is
#: its max with the row side, so it is <= ``lb_keogh`` but not <= EQ.
#: ``lemire`` is >= EQ but not ordered against ``lb_keogh``.
ENVELOPE_CHAIN = ("keogh_paa", "new_paa_eq", "lb_keogh_eq", "lb_keogh",
                  "exact")

#: The row side of ``new_paa`` on float64 rows, computed in float64:
#: New_PAA of each row's envelope at ``ROW_FRAMES`` frames against the
#: query's PAA (Theorem 1 for the row's envelope), then EC, the query
#: against the row's full envelope, then the exact DTW.
ROW_SIDE_CHAIN = ("new_paa_ec", "lb_keogh_ec", "exact")

#: Frames of the row-envelope New_PAA the engine serves.
ROW_FRAMES = row_paa_frames(FEATURES, LENGTH)

#: Every cascade stage (first_last is sound but outside the chain).
ALL_STAGES = ("first_last", "keogh_paa", "new_paa", "lb_keogh", "lemire")


def _raw_random_walk(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.cumsum(rng.normal(size=n))


def _raw_sine_mixture(n: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n, dtype=np.float64)
    series = np.zeros(n)
    for _ in range(int(rng.integers(1, 4))):
        period = n / rng.uniform(1.5, 16.0)
        series += rng.uniform(0.3, 2.0) * np.sin(
            2 * np.pi * t / period + rng.uniform(0, 2 * np.pi)
        )
    return series + 0.05 * rng.normal(size=n)


@dataclass
class CaseBundle:
    """One query against a candidate matrix, with all quantities cached."""

    family: str
    query: np.ndarray                    # (LENGTH,) normal form
    candidates: np.ndarray               # (CANDIDATES, LENGTH) normal forms
    exact: np.ndarray                    # exact banded DTW per candidate
    bounds: dict[str, np.ndarray] = field(default_factory=dict)
    query_envelope: Envelope | None = None
    body: str = "native"                 # which body computed the bounds

    @property
    def size(self) -> int:
        return self.candidates.shape[0]


def _transforms():
    return {
        "keogh_paa": KeoghPAAEnvelopeTransform(LENGTH, FEATURES),
        "new_paa": NewPAAEnvelopeTransform(LENGTH, FEATURES),
    }


def two_sided_bound(query, rows: np.ndarray, *,
                    metric: str = "euclidean") -> np.ndarray:
    """The ``lb_keogh`` stage's bound of every row, in *rows*' dtype."""
    lower, upper = batch_envelope(rows, BAND)
    return lb_keogh_two_sided(
        query_sides(query, k_envelope(query, BAND), rows.dtype), rows,
        lower, upper,
        np.arange(rows.shape[0]), metric=metric,
    )


def row_side_bound(query, rows: np.ndarray, *,
                   metric: str = "euclidean") -> np.ndarray:
    """The row side of the ``new_paa`` stage, as the engine computes it:
    from the float32 ``env_paa`` column of *rows*' envelopes, on the
    body in force (the stage with a query side of 0: a feature envelope
    as wide as float64 goes)."""
    lower, upper = batch_envelope(rows, BAND)
    widest = np.finfo(np.float64).max
    unbounded = Envelope(lower=np.full(FEATURES, -widest),
                         upper=np.full(FEATURES, widest))
    return lb_new_paa_two_sided(
        np.zeros((rows.shape[0], FEATURES)), unbounded,
        frame_means(np.asarray(query)[None, :], ROW_FRAMES)[0],
        envelope_paa(lower, upper, ROW_FRAMES), _row_widths(rows.shape[1]),
        slice(None), metric=metric)


def _row_widths(n: int) -> np.ndarray:
    """Widths of the row-envelope PAA's frames."""
    bounds = NewPAAEnvelopeTransform(n, ROW_FRAMES).transform.frame_bounds
    return np.diff(bounds).astype(np.float64)


def row_side_reference(query, rows: np.ndarray, *,
                       metric: str = "euclidean") -> np.ndarray:
    """The same bound in float64, row by row: the query's PAA against
    New_PAA of the row's envelope (Theorem 1 for the row's envelope),
    through the scalar reference for the Euclidean metric and as
    widths times the frame gaps for Manhattan."""
    lower, upper = batch_envelope(rows, BAND)
    if metric == "manhattan":
        width = rows.shape[1] / ROW_FRAMES
        q = np.asarray(query).reshape(ROW_FRAMES, -1).mean(axis=1)
        lo = lower.reshape(len(rows), ROW_FRAMES, -1).mean(axis=2)
        hi = upper.reshape(len(rows), ROW_FRAMES, -1).mean(axis=2)
        gap = np.maximum(lo - q, 0) + np.maximum(q - hi, 0)
        return width * gap.sum(axis=1)
    transform = NewPAAEnvelopeTransform(rows.shape[1], ROW_FRAMES)
    return np.array([
        lb_envelope_transform(
            transform, query=query,
            feature_envelope=transform.reduce(Envelope(lower=lo, upper=hi)),
        )
        for lo, hi in zip(lower, upper)
    ])


def make_bundle(family: str, query_raw, candidate_raws) -> CaseBundle:
    """Normalise, then compute exact distances and every stage bound
    (on the body in force)."""
    q = NORMAL_FORM.apply(query_raw)
    cands = np.vstack([NORMAL_FORM.apply(c) for c in candidate_raws])
    # The reference row loop, pair by pair: the batch kernel is what the
    # parity properties check against these values.
    exact = np.array([ldtw_distance(q, row, BAND) for row in cands])
    bundle = CaseBundle(family=family, query=q, candidates=cands, exact=exact)
    _bound(bundle)
    return bundle


def on_each_body(case: CaseBundle) -> list[CaseBundle]:
    """*case* bounded by every body this host has, one bundle each (the
    exact distances are shared)."""
    out = []
    for name in bodies():
        bundle = CaseBundle(family=case.family, query=case.query,
                            candidates=case.candidates, exact=case.exact,
                            body=name)
        with body(name):
            _bound(bundle)
        out.append(bundle)
    return out


def _bound(bundle: CaseBundle) -> None:
    """Every stage bound of *bundle*'s case."""
    q, cands = bundle.query, bundle.candidates
    env = k_envelope(q, BAND)
    bundle.query_envelope = env
    transforms = _transforms()
    features = transforms["new_paa"].transform.transform_batch(cands)
    bundle.bounds["first_last"] = lb_first_last_batch(q, cands)
    bundle.bounds["lb_keogh_eq"] = lb_envelope_batch(cands, env)
    lower, upper = batch_envelope(cands, BAND)
    bundle.bounds["lb_keogh_ec"] = np.sqrt(np.sum(
        (np.maximum(lower - q, 0) + np.maximum(q - upper, 0)) ** 2, axis=1))
    bundle.bounds["lb_keogh"] = two_sided_bound(q, cands)
    bundle.bounds["lemire"] = lb_lemire_batch(q, cands, BAND, q_envelope=env)
    bundle.bounds["keogh_paa"] = lb_envelope_batch(
        features, transforms["keogh_paa"].reduce(env))
    bundle.bounds["new_paa_eq"] = lb_envelope_batch(
        features, transforms["new_paa"].reduce(env))
    bundle.bounds["new_paa_ec"] = row_side_reference(q, cands)
    # The stage: Theorem 1 both ways, its row side from the float32
    # column the engine reads.
    bundle.bounds["new_paa"] = lb_new_paa_two_sided(
        features, transforms["new_paa"].reduce(env),
        frame_means(q[None, :], ROW_FRAMES)[0],
        envelope_paa(lower, upper, ROW_FRAMES), _row_widths(LENGTH),
        slice(None),
    )


def generate_bundles(seed: int = 2003) -> list[CaseBundle]:
    """The full deterministic pool: one bundle per (family, query,
    body)."""
    rng = np.random.default_rng(seed)
    melodies = segment_corpus(generate_corpus(4, seed=seed), per_song=10,
                              seed=seed)
    profile = SingerProfile.poor()
    bundles: list[CaseBundle] = []
    for _ in range(QUERIES_PER_FAMILY):
        raw_len = int(rng.integers(48, 128))
        bundles.extend(on_each_body(make_bundle(
            "random_walk",
            _raw_random_walk(raw_len, rng),
            [_raw_random_walk(int(rng.integers(48, 128)), rng)
             for _ in range(CANDIDATES_PER_QUERY)],
        )))
        bundles.extend(on_each_body(make_bundle(
            "sine_mixture",
            _raw_sine_mixture(raw_len, rng),
            [_raw_sine_mixture(int(rng.integers(48, 128)), rng)
             for _ in range(CANDIDATES_PER_QUERY)],
        )))
        bundles.extend(on_each_body(make_bundle(
            "synthetic_hum",
            hum_melody(melodies[int(rng.integers(len(melodies)))], profile,
                       rng),
            [hum_melody(melodies[int(rng.integers(len(melodies)))], profile,
                        rng)
             for _ in range(CANDIDATES_PER_QUERY)],
        )))
    return bundles


@pytest.fixture(scope="session")
def bundles() -> list[CaseBundle]:
    pool = generate_bundles()
    total = sum(b.size for b in pool)
    # The acceptance bar: every invariant test sweeps >= 200 cases.
    assert total >= 200, f"case pool too small: {total}"
    return pool

"""Generated case pool for the lower-bound property suite.

Three series families — random walks, sine mixtures, and synthetic
hums — produce hundreds of seeded (query, candidate) pairs.  For each
bundle (one query against a candidate matrix) the exact banded DTW and
every cascade stage bound are precomputed once per session, so each
invariant test sweeps the whole pool cheaply.

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
)
from repro.core.normal_form import NormalForm
from repro.dtw.distance import ldtw_distance
from repro.engine.stages import (
    lb_envelope_batch,
    lb_first_last_batch,
    lb_keogh_two_sided,
    lb_lemire_batch,
)
from repro.hum.singer import SingerProfile, hum_melody
from repro.music.corpus import generate_corpus, segment_corpus

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
#: ``lemire`` is >= EQ but not ordered against ``lb_keogh``.
ENVELOPE_CHAIN = ("keogh_paa", "new_paa", "lb_keogh_eq", "lb_keogh", "exact")

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
        query, k_envelope(query, BAND), rows, lower, upper,
        np.arange(rows.shape[0]), metric=metric,
    )


def make_bundle(family: str, query_raw, candidate_raws) -> CaseBundle:
    """Normalise, then compute exact distances and every stage bound."""
    q = NORMAL_FORM.apply(query_raw)
    cands = np.vstack([NORMAL_FORM.apply(c) for c in candidate_raws])
    # The reference row loop, pair by pair: the batch kernel is what the
    # parity properties check against these values.
    exact = np.array([ldtw_distance(q, row, BAND) for row in cands])
    bundle = CaseBundle(family=family, query=q, candidates=cands, exact=exact)
    env = k_envelope(q, BAND)
    bundle.query_envelope = env
    transforms = _transforms()
    features = transforms["new_paa"].transform.transform_batch(cands)
    bundle.bounds["first_last"] = lb_first_last_batch(q, cands)
    bundle.bounds["lb_keogh_eq"] = lb_envelope_batch(cands, env)
    bundle.bounds["lb_keogh"] = two_sided_bound(q, cands)
    bundle.bounds["lemire"] = lb_lemire_batch(q, cands, BAND, q_envelope=env)
    for name in ("keogh_paa", "new_paa"):
        bundle.bounds[name] = lb_envelope_batch(
            features, transforms[name].reduce(env)
        )
    return bundle


def generate_bundles(seed: int = 2003) -> list[CaseBundle]:
    """The full deterministic pool: one bundle per (family, query)."""
    rng = np.random.default_rng(seed)
    melodies = segment_corpus(generate_corpus(4, seed=seed), per_song=10,
                              seed=seed)
    profile = SingerProfile.poor()
    bundles: list[CaseBundle] = []
    for _ in range(QUERIES_PER_FAMILY):
        raw_len = int(rng.integers(48, 128))
        bundles.append(make_bundle(
            "random_walk",
            _raw_random_walk(raw_len, rng),
            [_raw_random_walk(int(rng.integers(48, 128)), rng)
             for _ in range(CANDIDATES_PER_QUERY)],
        ))
        bundles.append(make_bundle(
            "sine_mixture",
            _raw_sine_mixture(raw_len, rng),
            [_raw_sine_mixture(int(rng.integers(48, 128)), rng)
             for _ in range(CANDIDATES_PER_QUERY)],
        ))
        bundles.append(make_bundle(
            "synthetic_hum",
            hum_melody(melodies[int(rng.integers(len(melodies)))], profile,
                       rng),
            [hum_melody(melodies[int(rng.integers(len(melodies)))], profile,
                        rng)
             for _ in range(CANDIDATES_PER_QUERY)],
        ))
    return bundles


@pytest.fixture(scope="session")
def bundles() -> list[CaseBundle]:
    pool = generate_bundles()
    total = sum(b.size for b in pool)
    # The acceptance bar: every invariant test sweeps >= 200 cases.
    assert total >= 200, f"case pool too small: {total}"
    return pool

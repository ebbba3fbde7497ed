"""Property tests for the no-false-negative guarantee.

Every test here sweeps the whole generated case pool (3 families x 8
queries x 30 candidates = 720 pairs), asserting the invariants the
filter cascade relies on:

* **Soundness** — every stage bound is <= the exact constrained DTW
  (Theorem 1 of the paper for the feature-space stages, Lemma 2 for
  LB_Keogh, corner-cell monotonicity for first/last).
* **Monotone tightness** — on float64 rows the envelope-family bounds
  satisfy the pointwise chain
  ``keogh_paa <= new_paa(EQ) <= EQ <= lb_keogh <= exact`` (``lb_keogh``
  is Lemma 2 both ways, max(EQ, EC)), and ``EQ <= lemire``.  The row
  side of ``new_paa`` satisfies ``new_paa(EC) <= EC <= exact``, and the
  ``new_paa`` stage, Theorem 1 both ways, stays ``<= lb_keogh``.
* **Float32 soundness** — on float32 rows the deflated ``lb_keogh``
  bound never exceeds the exact float64 max(EQ, EC) of the same rows,
  and the row side of ``new_paa``, read from the float32 ``env_paa``
  column and deflated, never exceeds its float64 value.
* **New_PAA beats Keogh_PAA** — the paper's headline claim, both
  pointwise and strictly in aggregate.
* **Batch == scalar** — the vectorized kernels agree with the scalar
  reference implementations to 1e-9.
* **Both bodies** — every case is bounded by the native library and by
  the NumPy fallback, and the two agree: to 1e-9 on float64 rows,
  within the float32 deflation on float32 rows.  A native ``lb_keogh``
  given a radius abandons a row once its EC exceeds it; the partial
  bound it returns is above that radius and still sound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.envelope import batch_envelope, k_envelope
from repro.core.envelope_transforms import envelope_paa, frame_means
from repro.core.lower_bounds import lb_envelope_transform, lb_keogh
from repro.engine.stages import (
    lb_envelope_batch,
    lb_first_last_batch,
    lb_keogh_two_sided,
    lb_lemire_batch,
    lb_row_paa,
    query_sides,
)

from tests.conftest import bodies, body

from .conftest import (
    ALL_STAGES,
    BAND,
    ENVELOPE_CHAIN,
    ROW_FRAMES,
    ROW_SIDE_CHAIN,
    _transforms,
    generate_bundles,
    make_bundle,
    row_side_bound,
    row_side_reference,
    two_sided_bound,
)

ATOL = 1e-9


def test_case_pool_is_large_enough(bundles):
    assert sum(b.size for b in bundles) >= 200
    assert {b.family for b in bundles} == {
        "random_walk", "sine_mixture", "synthetic_hum",
    }


@pytest.mark.parametrize("stage", ALL_STAGES)
def test_stage_never_overestimates_exact_dtw(bundles, stage):
    """No false negatives: bound <= exact constrained DTW, every case."""
    for bundle in bundles:
        bound = bundle.bounds[stage]
        assert bound.shape == bundle.exact.shape
        assert np.all(np.isfinite(bound))
        assert np.all(bound >= 0.0)
        excess = bound - bundle.exact
        assert np.max(excess) <= ATOL, (
            f"{stage} overestimates exact DTW by {np.max(excess):.3e} "
            f"on a {bundle.family} case"
        )


@pytest.mark.parametrize(
    "looser, tighter",
    list(zip(ENVELOPE_CHAIN[:-1], ENVELOPE_CHAIN[1:])),
)
def test_envelope_chain_is_monotonically_tighter(bundles, looser, tighter):
    """The documented chain is pointwise monotone in tightness."""
    for bundle in bundles:
        values = {**bundle.bounds, "exact": bundle.exact}
        gap = values[looser] - values[tighter]
        assert np.max(gap) <= ATOL, (
            f"{looser} exceeded {tighter} by {np.max(gap):.3e} "
            f"on a {bundle.family} case"
        )


@pytest.mark.parametrize(
    "looser, tighter",
    list(zip(ROW_SIDE_CHAIN[:-1], ROW_SIDE_CHAIN[1:])),
)
def test_row_side_chain_is_monotonically_tighter(bundles, looser, tighter):
    """On float64 rows, New_PAA of each row's envelope <= EC <= exact:
    Theorem 1 holds for the row's envelope as for the query's."""
    for bundle in bundles:
        values = {**bundle.bounds, "exact": bundle.exact}
        gap = values[looser] - values[tighter]
        assert np.max(gap) <= ATOL, (
            f"{looser} exceeded {tighter} by {np.max(gap):.3e} "
            f"on a {bundle.family} case"
        )


def test_two_sided_new_paa_never_exceeds_lb_keogh(bundles):
    """The ``new_paa`` stage (its query side's max with its row side)
    is <= ``lb_keogh`` = max(EQ, EC), each side under its own half."""
    for bundle in bundles:
        gap = bundle.bounds["new_paa"] - bundle.bounds["lb_keogh"]
        assert np.max(gap) <= ATOL, (
            f"new_paa exceeded lb_keogh by {np.max(gap):.3e} "
            f"on a {bundle.family} case"
        )
        # ... and the row side is what lifts it above the query side.
        assert np.all(bundle.bounds["new_paa"]
                      >= bundle.bounds["new_paa_eq"])


def test_new_paa_strictly_tighter_than_keogh_paa_in_aggregate(bundles):
    """New_PAA dominates Keogh_PAA pointwise and wins overall.

    Equality everywhere would mean one implementation is aliased to the
    other; over 720 random cases the envelope varies within frames, so
    the aggregate bound mass must be strictly larger.  Both are the
    query side, at the same frames: the paper's comparison.
    """
    total_keogh = 0.0
    total_new = 0.0
    for bundle in bundles:
        keogh = bundle.bounds["keogh_paa"]
        new = bundle.bounds["new_paa_eq"]
        assert np.max(keogh - new) <= ATOL
        total_keogh += float(np.sum(keogh))
        total_new += float(np.sum(new))
    assert total_new > total_keogh


@pytest.mark.parametrize("stage", ALL_STAGES)
def test_tightness_ratio_in_unit_interval(bundles, stage):
    """bound / exact lies in [0, 1] wherever exact > 0."""
    for bundle in bundles:
        positive = bundle.exact > 0
        ratio = bundle.bounds[stage][positive] / bundle.exact[positive]
        assert np.all(ratio <= 1.0 + ATOL)
        assert np.all(ratio >= 0.0)


def test_batch_lb_keogh_matches_scalar(bundles):
    """Vectorized EQ row i == scalar lb_keogh(candidate_i, query), and the
    two-sided stage == the larger of the scalar bound read both ways."""
    for bundle in bundles:
        eq = bundle.bounds["lb_keogh_eq"]
        two_sided = bundle.bounds["lb_keogh"]
        for i in range(bundle.size):
            scalar_eq = lb_keogh(bundle.candidates[i], bundle.query, BAND)
            scalar_ec = lb_keogh(bundle.query, bundle.candidates[i], BAND)
            assert eq[i] == pytest.approx(scalar_eq, abs=ATOL)
            assert two_sided[i] == pytest.approx(max(scalar_eq, scalar_ec),
                                                 abs=ATOL)


@pytest.mark.parametrize("stage", ["keogh_paa", "new_paa"])
def test_batch_feature_bound_matches_scalar_envelope_transform(
    bundles, stage
):
    """Vectorized feature-space bounds == scalar lb_envelope_transform."""
    env_t = _transforms()[stage]
    for bundle in bundles:
        batch = bundle.bounds[{"new_paa": "new_paa_eq"}.get(stage, stage)]
        feature_env = env_t.reduce(bundle.query_envelope)
        for i in range(bundle.size):
            scalar = lb_envelope_transform(
                env_t,
                query=bundle.candidates[i],
                feature_envelope=feature_env,
            )
            assert batch[i] == pytest.approx(scalar, abs=ATOL)


def test_lemire_second_pass_only_adds(bundles):
    """LB_Improved = LB_Keogh (EQ) + a nonnegative second-pass term."""
    for bundle in bundles:
        assert np.max(bundle.bounds["lb_keogh_eq"]
                      - bundle.bounds["lemire"]) <= ATOL


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e4, 1e3)])
def test_float32_two_sided_bound_never_exceeds_float64(
    bundles, metric, scale, offset
):
    """On float32 rows the deflated bound is <= the exact float64
    max(EQ, EC) of the same stored rows, every case, both metrics —
    and loses at most the deflation's 1e-5 relative, on each body."""
    for bundle in bundles:
        query = bundle.query * scale + offset
        rows = (bundle.candidates * scale + offset).astype(np.float32)
        with body(bundle.body):
            single = two_sided_bound(query, rows, metric=metric)
            exact = two_sided_bound(query, rows.astype(np.float64),
                                    metric=metric)
        assert np.all(single <= exact), (
            f"float32 bound exceeds float64 by "
            f"{np.max(single - exact):.3e} on a {bundle.family} case"
        )
        assert np.all(single >= exact * (1 - 1e-5))


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e4, 1e3)])
def test_float32_row_side_bound_never_exceeds_float64(
    bundles, metric, scale, offset
):
    """The row side of ``new_paa`` as served — from the float32
    ``env_paa`` column, rounded outward, in float32 arithmetic, deflated
    — is <= the same bound computed in float64 from the exact frame
    means, every case, both metrics, each body; and it gives up little
    of it."""
    for bundle in bundles:
        query = bundle.query * scale + offset
        rows = bundle.candidates * scale + offset
        with body(bundle.body):
            single = row_side_bound(query, rows, metric=metric)
        exact = row_side_reference(query, rows, metric=metric)
        assert np.all(single <= exact), (
            f"float32 row side exceeds float64 by "
            f"{np.max(single - exact):.3e} on a {bundle.family} case"
        )
        assert np.sum(single) >= np.sum(exact) * (1 - 1e-4)


def test_first_last_is_exact_on_identical_series(bundles):
    """Sanity anchor: every bound is 0 when the candidate == query."""
    for bundle in bundles[:3]:
        q = bundle.query
        self_bundle = make_bundle(bundle.family, q, [q, q + 0.0])
        assert np.all(self_bundle.exact == 0.0)
        for stage in ALL_STAGES:
            assert np.all(np.abs(self_bundle.bounds[stage]) <= ATOL)


def test_manhattan_metric_bounds_are_sound():
    """The L1 variants of the batch kernels are lower bounds too."""
    from repro.dtw.distance import ldtw_distance

    rng = np.random.default_rng(7)
    q = np.cumsum(rng.normal(size=48))
    cands = np.cumsum(rng.normal(size=(40, 48)), axis=1)
    env = k_envelope(q, 4)
    exact = np.array([
        ldtw_distance(q, c, 4, metric="manhattan") for c in cands
    ])
    lower, upper = batch_envelope(cands, 4)
    for name in bodies():
        with body(name):
            computed = (
                lb_envelope_batch(cands, env, metric="manhattan"),
                lb_first_last_batch(q, cands, metric="manhattan"),
                lb_keogh_two_sided(query_sides(q, env, cands.dtype), cands,
                                   lower, upper, np.arange(len(cands)),
                                   metric="manhattan"),
                lb_lemire_batch(q, cands, 4, q_envelope=env,
                                metric="manhattan"),
                lb_row_paa(frame_means(q[None, :], 12)[0],
                           envelope_paa(lower, upper, 12), slice(None),
                           np.full(12, 4.0), metric="manhattan"),
            )
        for bound in computed:
            assert np.max(bound - exact) <= ATOL


def test_pool_is_deterministic_under_fixed_seed():
    """Regenerating the pool reproduces bit-identical bounds."""
    first = generate_bundles(seed=99)[:2]
    second = generate_bundles(seed=99)[:2]
    for a, b in zip(first, second):
        assert np.array_equal(a.query, b.query)
        assert np.array_equal(a.exact, b.exact)
        for stage in ALL_STAGES:
            assert np.array_equal(a.bounds[stage], b.bounds[stage])


def _pairs(bundles):
    """``(native, numpy)`` bundles of each case (the pool bounds every
    case once per body, native first); skips on a host without the
    native library."""
    if "native" not in bodies():
        pytest.skip("no native build on this host (no C compiler)")
    return list(zip(bundles[::2], bundles[1::2]))


def _gamma(terms: int) -> float:
    """gamma_terms for float32: the relative error a deflated bound of
    *terms* rounded steps may carry below the exact one."""
    m = terms * 2.0 ** -24
    return m / (1 - m)


def test_native_and_numpy_bodies_agree_on_float64_rows(bundles):
    """On float64 rows the two bodies compute the same bounds, each
    summed in its own order: equal to 1e-9, and ``first_last`` (the same
    operations) bit for bit.  (``new_paa``'s row side is float32 on any
    rows: the next test.)"""
    for native, numpy_body in _pairs(bundles):
        assert (native.body, numpy_body.body) == ("native", "numpy")
        assert np.array_equal(native.bounds["first_last"],
                              numpy_body.bounds["first_last"])
        for stage in ("keogh_paa", "new_paa_eq", "lb_keogh", "lb_keogh_eq"):
            np.testing.assert_allclose(native.bounds[stage],
                                       numpy_body.bounds[stage],
                                       rtol=0, atol=ATOL, err_msg=stage)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_native_and_numpy_bodies_agree_on_float32_rows(bundles, metric):
    """On float32 rows both bodies deflate by the same worst case, so
    their bounds differ by at most twice that factor: ``lb_keogh``
    (n + 4 rounded steps) and the row side of ``new_paa`` (frames + 4)."""
    for case, _ in _pairs(bundles):
        rows = case.candidates.astype(np.float32)
        computed = {}
        for name in bodies():
            with body(name):
                computed[name] = (
                    two_sided_bound(case.query, rows, metric=metric),
                    row_side_bound(case.query, rows, metric=metric))
        for side, terms in enumerate((rows.shape[1] + 4, ROW_FRAMES + 4)):
            np.testing.assert_allclose(
                computed["native"][side], computed["numpy"][side],
                rtol=2 * _gamma(terms), atol=0)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_abandoned_rows_stay_sound_and_above_their_radius(bundles, metric,
                                                          dtype):
    """A native ``lb_keogh`` given a radius returns, for a row it
    abandons, a partial bound above that radius and still below the
    exact float64 max(EQ, EC); every other row gets its full bound,
    unchanged."""
    abandoned_total = 0
    for case, _ in _pairs(bundles):
        rows = case.candidates.astype(dtype)
        lower, upper = batch_envelope(rows, BAND)
        sides = query_sides(case.query, k_envelope(case.query, BAND), dtype)
        every = np.arange(len(rows))
        with body("numpy"):
            exact = two_sided_bound(case.query, rows.astype(np.float64),
                                    metric=metric)
        with body("native"):
            full = lb_keogh_two_sided(sides, rows, lower, upper, every,
                                      metric=metric)
            for quantile in (0.1, 0.5, 0.9):
                radius = float(np.quantile(full, quantile))
                cut = lb_keogh_two_sided(sides, rows, lower, upper, every,
                                         metric=metric, radius=radius)
                abandoned = cut != full
                abandoned_total += int(np.count_nonzero(abandoned))
                assert np.all(cut[abandoned] > radius)
                assert np.all(cut[abandoned] < full[abandoned])
                assert np.all(cut <= exact + ATOL), (
                    f"a cut bound exceeds the exact one by "
                    f"{np.max(cut - exact):.3e} on a {case.family} case")
                assert np.all(full[~abandoned] <= radius) or np.all(
                    cut[~abandoned] == full[~abandoned])
    assert abandoned_total > 0

"""Property-based tests (hypothesis) for the core invariants.

These are the paper's theorems checked on arbitrary inputs:
lower-bounding (Theorem 1 / Lemma 2), container invariance
(Definition 8 / Lemma 3), and the structural properties of envelopes
and transforms they rest on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.envelope import batch_envelope, envelope_distance, k_envelope
from repro.core.envelope_transforms import (
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
)
from repro.core.lower_bounds import lb_envelope_transform, lb_keogh, lb_yi
from repro.core.series import uniform_resample, upsample
from repro.core.transforms import DFTTransform, HaarTransform, PAATransform
from repro.dtw.distance import ldtw_distance

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


def series(length):
    return arrays(np.float64, length, elements=finite)


@given(series(32), st.integers(0, 10))
def test_envelope_contains_series(x, k):
    assert k_envelope(x, k).contains(x)


@given(series(32), st.integers(0, 40))
def test_sliding_extrema_bracket_series(x, k):
    """Both envelope routes bracket the series, in float64 and float32."""
    env = k_envelope(x, k)
    assert np.all(env.lower <= x) and np.all(env.upper >= x)
    rows = np.stack([x, x[::-1]]).astype(np.float32)
    lower, upper = batch_envelope(rows, k)
    assert np.all(lower <= rows) and np.all(upper >= rows)


@given(series(24), st.integers(1, 8), st.integers(1, 8))
def test_envelope_nested_in_k(x, k1, k2):
    small, large = sorted((k1, k2))
    e_small = k_envelope(x, small)
    e_large = k_envelope(x, large)
    assert np.all(e_large.lower <= e_small.lower)
    assert np.all(e_large.upper >= e_small.upper)


@given(series(32), series(32), st.integers(0, 8))
def test_lb_keogh_lower_bounds_ldtw(x, y, k):
    assert lb_keogh(x, y, k) <= ldtw_distance(x, y, k) + 1e-6


@given(series(32), series(32), st.integers(0, 8))
def test_lb_yi_below_lb_keogh(x, y, k):
    assert lb_yi(x, y) <= lb_keogh(x, y, k) + 1e-6


@settings(max_examples=50)
@given(series(32), series(32), st.integers(0, 8), st.integers(1, 8))
def test_theorem1_new_paa(x, y, k, n_frames):
    lb = lb_envelope_transform(NewPAAEnvelopeTransform(32, n_frames), x, y, k=k)
    assert lb <= ldtw_distance(x, y, k) + 1e-6


@settings(max_examples=50)
@given(series(32), series(32), st.integers(0, 8), st.integers(1, 8))
def test_theorem1_dft(x, y, k, n_coeff):
    env_t = SignSplitEnvelopeTransform(DFTTransform(32, n_coeff))
    lb = lb_envelope_transform(env_t, x, y, k=k)
    assert lb <= ldtw_distance(x, y, k) + 1e-6


@settings(max_examples=50)
@given(series(32), st.integers(0, 8), st.integers(1, 8), st.data())
def test_container_invariance_on_contained_series(y, k, n_frames, data):
    """Any series drawn inside Env_k(y) maps inside the reduced envelope."""
    env = k_envelope(y, k)
    weights = data.draw(arrays(np.float64, 32,
                               elements=st.floats(0, 1, allow_nan=False)))
    z = env.lower + weights * env.width()
    for env_t in (
        NewPAAEnvelopeTransform(32, n_frames),
        KeoghPAAEnvelopeTransform(32, n_frames),
        SignSplitEnvelopeTransform(HaarTransform(32, min(n_frames, 32))),
    ):
        fe = env_t.reduce(env)
        assert fe.contains(env_t.transform_series(z), atol=1e-6)


@given(series(32), st.integers(0, 8), st.integers(1, 8))
def test_new_paa_band_within_keogh_band(y, k, n_frames):
    env = k_envelope(y, k)
    fe_new = NewPAAEnvelopeTransform(32, n_frames).reduce(env)
    fe_keogh = KeoghPAAEnvelopeTransform(32, n_frames).reduce(env)
    assert np.all(fe_new.lower >= fe_keogh.lower - 1e-9)
    assert np.all(fe_new.upper <= fe_keogh.upper + 1e-9)


@given(series(32), series(32), st.integers(1, 8))
def test_transforms_contract_euclidean_distance(x, y, n):
    for t in (PAATransform(32, n), DFTTransform(32, n), HaarTransform(32, n)):
        d_feat = np.linalg.norm(t(x) - t(y))
        d_orig = np.linalg.norm(x - y)
        assert d_feat <= d_orig + 1e-6


@given(series(16), st.integers(1, 6))
def test_upsample_preserves_multiset_counts(x, w):
    up = upsample(x, w)
    assert up.size == x.size * w
    assert np.array_equal(up[::w], x)


@given(series(16), st.integers(1, 64))
def test_uniform_resample_values_come_from_input(x, m):
    out = uniform_resample(x, m)
    assert out.size == m
    assert np.all(np.isin(out, x))


@given(series(24), st.integers(0, 6))
def test_envelope_distance_zero_iff_contained(x, k):
    env = k_envelope(x, k)
    assert envelope_distance(x, env) == 0.0
    poked = x.copy()
    poked[0] = env.upper[0] + 10.0
    assert envelope_distance(poked, env) > 0.0

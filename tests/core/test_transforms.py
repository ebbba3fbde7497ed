"""Unit tests for repro.core.transforms."""

import numpy as np
import pytest

from repro.core import transforms
from repro.core.transforms import (
    DFTTransform,
    HaarTransform,
    IdentityTransform,
    LinearTransform,
    PAATransform,
    SVDTransform,
)

# Rows per block of transform_batch.
BLOCK = transforms._BATCH_ROWS

ALL_FIXED = [
    lambda: PAATransform(64, 8),
    lambda: DFTTransform(64, 8),
    lambda: HaarTransform(64, 8),
    lambda: IdentityTransform(64),
]


class TestLinearTransformBase:
    def test_rejects_expansion(self):
        with pytest.raises(ValueError, match="cannot have more outputs"):
            LinearTransform(np.ones((5, 3)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="2-D"):
            LinearTransform(np.ones(4))

    def test_matrix_readonly(self):
        t = PAATransform(8, 2)
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 5.0

    def test_transform_wrong_length(self):
        t = PAATransform(8, 2)
        with pytest.raises(ValueError, match="expects length 8"):
            t.transform(np.ones(9))

    def test_batch_matches_single(self, rng):
        t = DFTTransform(32, 6)
        data = rng.normal(size=(5, 32))
        batch = t.transform_batch(data)
        for i in range(5):
            assert np.allclose(batch[i], t.transform(data[i]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK + 1,
                                      2 * BLOCK + 2, 5 * BLOCK // 2])
    @pytest.mark.parametrize("make", ALL_FIXED)
    def test_batch_equals_one_product_bit_for_bit(self, make, rows, dtype,
                                                  rng):
        """Blocked upcasting changes no bit of any feature, whatever
        the row count's remainder modulo the block size."""
        t = make()
        data = rng.normal(size=(rows, t.input_length)).astype(dtype)
        want = np.asarray(data, dtype=np.float64) @ t.matrix.T
        got = t.transform_batch(data)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

    def test_batch_rejects_wrong_width(self, rng):
        t = DFTTransform(32, 6)
        with pytest.raises(ValueError, match="expects shape"):
            t.transform_batch(rng.normal(size=(5, 31)))

    def test_callable(self, rng):
        t = PAATransform(16, 4)
        x = rng.normal(size=16)
        assert np.allclose(t(x), t.transform(x))


class TestLowerBounding:
    @pytest.mark.parametrize("factory", ALL_FIXED)
    def test_is_lower_bounding_flag(self, factory):
        assert factory().is_lower_bounding()

    @pytest.mark.parametrize("factory", ALL_FIXED)
    def test_distances_contract(self, factory, rng):
        t = factory()
        for _ in range(20):
            x = rng.normal(size=64)
            y = rng.normal(size=64)
            d_feature = np.linalg.norm(t.transform(x) - t.transform(y))
            d_original = np.linalg.norm(x - y)
            assert d_feature <= d_original + 1e-9

    def test_svd_lower_bounding(self, rng):
        data = np.cumsum(rng.normal(size=(50, 32)), axis=1)
        t = SVDTransform.fit(data, 6)
        assert t.is_lower_bounding()
        x, y = data[0], data[1]
        assert np.linalg.norm(t(x) - t(y)) <= np.linalg.norm(x - y) + 1e-9


class TestPAA:
    def test_frame_means_on_divisible_length(self):
        t = PAATransform(8, 4)
        x = np.array([1, 1, 2, 2, 3, 3, 4, 4], dtype=float)
        assert t.frame_means(x).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_scaled_features_relate_to_means(self):
        t = PAATransform(8, 4)
        x = np.arange(8, dtype=float)
        assert np.allclose(t.transform(x), np.sqrt(2.0) * t.frame_means(x))

    def test_all_coefficients_positive(self):
        t = PAATransform(100, 7)
        assert np.all(t.matrix >= 0)
        assert np.all(t.matrix.sum(axis=1) > 0)

    def test_uneven_frames_cover_everything(self):
        t = PAATransform(10, 3)
        # every input column contributes to exactly one frame
        assert np.all((t.matrix > 0).sum(axis=0) == 1)

    def test_rejects_more_frames_than_samples(self):
        with pytest.raises(ValueError, match="cannot split"):
            PAATransform(4, 8)

    def test_constant_series_reconstructs(self):
        t = PAATransform(12, 3)
        assert np.allclose(t.frame_means(np.full(12, 2.5)), 2.5)


class TestDFT:
    def test_first_row_is_dc(self):
        t = DFTTransform(16, 5)
        x = np.full(16, 3.0)
        feats = t.transform(x)
        assert feats[0] == pytest.approx(3.0 * np.sqrt(16))
        assert np.allclose(feats[1:], 0.0, atol=1e-12)

    def test_pure_tone_energy_in_pair(self):
        n = 32
        t = DFTTransform(n, 3)
        x = np.cos(2 * np.pi * np.arange(n) / n)
        feats = t.transform(x)
        # energy preserved for a frequency-1 tone kept by the transform
        assert np.linalg.norm(feats) == pytest.approx(np.linalg.norm(x))

    def test_rows_orthonormal(self):
        t = DFTTransform(64, 9)
        gram = t.matrix @ t.matrix.T
        assert np.allclose(gram, np.eye(9), atol=1e-10)

    def test_full_dimension_allowed(self):
        t = DFTTransform(8, 8)
        assert t.output_dim == 8


class TestHaar:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            HaarTransform(12, 4)

    def test_rows_orthonormal(self):
        t = HaarTransform(16, 16)
        assert np.allclose(t.matrix @ t.matrix.T, np.eye(16), atol=1e-10)

    def test_full_haar_preserves_norm(self, rng):
        t = HaarTransform(32, 32)
        x = rng.normal(size=32)
        assert np.linalg.norm(t(x)) == pytest.approx(np.linalg.norm(x))

    def test_first_coefficient_is_scaled_mean(self, rng):
        t = HaarTransform(16, 1)
        x = rng.normal(size=16)
        assert t(x)[0] == pytest.approx(x.mean() * np.sqrt(16))


class TestSVD:
    def test_optimal_for_training_data(self, rng):
        """SVD captures more pairwise distance on its training set than
        a fixed transform of the same dimension."""
        data = np.cumsum(rng.normal(size=(100, 64)), axis=1)
        data = data - data.mean(axis=1, keepdims=True)
        svd = SVDTransform.fit(data, 4)
        paa = PAATransform(64, 4)
        svd_total = paa_total = 0.0
        for i in range(0, 20, 2):
            x, y = data[i], data[i + 1]
            svd_total += np.linalg.norm(svd(x) - svd(y))
            paa_total += np.linalg.norm(paa(x) - paa(y))
        assert svd_total >= paa_total

    def test_fit_rejects_too_many_components(self):
        data = np.zeros((5, 8))
        with pytest.raises(ValueError, match="output dimension"):
            SVDTransform.fit(data, 9)

    def test_fit_center_option(self, rng):
        data = rng.normal(size=(30, 16)) + 100.0
        t = SVDTransform.fit(data, 3, center=True)
        assert t.output_dim == 3


class TestIdentity:
    def test_is_identity(self, rng):
        t = IdentityTransform(10)
        x = rng.normal(size=10)
        assert np.allclose(t(x), x)

    def test_name(self):
        assert IdentityTransform(4).name == "LB"

"""Tests for the feature extractors (repro.features)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FeatureExtractionError, ValidationError
from repro.features.color_moments import ColorMomentsExtractor
from repro.features.composite import CompositeExtractor
from repro.features.edge_histogram import EdgeDirectionHistogramExtractor
from repro.features.normalization import FeatureNormalizer
from repro.features.wavelet_texture import WaveletTextureExtractor
from repro.imaging.image import Image


def _solid_image(rgb, size=32):
    pixels = np.zeros((size, size, 3))
    pixels[..., 0], pixels[..., 1], pixels[..., 2] = rgb
    return Image(pixels=pixels)


def _vertical_edge_image(size=32):
    pixels = np.zeros((size, size, 3))
    pixels[:, size // 2 :, :] = 1.0
    return Image(pixels=pixels)


class TestColorMoments:
    def test_dimension(self):
        assert ColorMomentsExtractor().dimension == 9

    def test_solid_color_moments(self):
        extractor = ColorMomentsExtractor()
        vector = extractor.extract(_solid_image((1.0, 0.0, 0.0)))
        # Solid red: hue mean 0, hue std 0, skew 0; sat mean 1; value mean 1.
        assert vector[0] == pytest.approx(0.0)
        assert vector[1] == pytest.approx(0.0)
        assert vector[3] == pytest.approx(1.0)
        assert vector[6] == pytest.approx(1.0)

    def test_different_colors_differ(self):
        extractor = ColorMomentsExtractor()
        red = extractor.extract(_solid_image((1.0, 0.0, 0.0)))
        blue = extractor.extract(_solid_image((0.0, 0.0, 1.0)))
        assert not np.allclose(red, blue)

    def test_finite_on_random_image(self):
        rng = np.random.default_rng(0)
        image = Image(pixels=rng.random((24, 24, 3)))
        vector = ColorMomentsExtractor().extract(image)
        assert vector.shape == (9,)
        assert np.all(np.isfinite(vector))


class TestEdgeHistogram:
    def test_dimension(self):
        assert EdgeDirectionHistogramExtractor().dimension == 18

    def test_histogram_sums_to_one(self):
        vector = EdgeDirectionHistogramExtractor().extract(_vertical_edge_image())
        assert vector.sum() == pytest.approx(1.0)

    def test_vertical_edge_concentrates_mass(self):
        # A vertical edge produces gradients along x: directions near 0 or 180 deg.
        vector = EdgeDirectionHistogramExtractor().extract(_vertical_edge_image())
        bins_near_0_or_180 = vector[0] + vector[8] + vector[9] + vector[17]
        assert bins_near_0_or_180 > 0.9

    def test_flat_image_uniform_histogram(self):
        vector = EdgeDirectionHistogramExtractor().extract(_solid_image((0.5, 0.5, 0.5)))
        np.testing.assert_allclose(vector, 1.0 / 18.0)

    def test_custom_bin_count(self):
        extractor = EdgeDirectionHistogramExtractor(bins=36)
        assert extractor.dimension == 36
        assert extractor.extract(_vertical_edge_image()).shape == (36,)


class TestWaveletTexture:
    def test_dimension(self):
        assert WaveletTextureExtractor().dimension == 9

    def test_flat_image_zero_entropy(self):
        vector = WaveletTextureExtractor().extract(_solid_image((0.3, 0.3, 0.3)))
        np.testing.assert_allclose(vector, 0.0, atol=1e-9)

    def test_textured_image_positive_entropy(self):
        rng = np.random.default_rng(1)
        image = Image(pixels=rng.random((48, 48, 3)))
        vector = WaveletTextureExtractor().extract(image)
        assert np.all(vector >= 0.0)
        assert vector.max() > 0.5

    def test_small_image_padded(self):
        image = Image(pixels=np.random.default_rng(2).random((16, 16, 3)))
        vector = WaveletTextureExtractor(levels=3).extract(image)
        assert vector.shape == (9,)

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            WaveletTextureExtractor(levels=0)


class TestComposite:
    def test_default_dimension_is_36(self):
        assert CompositeExtractor().dimension == 36

    def test_extract_batch_shape(self, small_images):
        features = CompositeExtractor().extract_batch(small_images)
        assert features.shape == (len(small_images), 36)
        assert np.all(np.isfinite(features))

    def test_empty_batch_rejected(self):
        with pytest.raises(FeatureExtractionError):
            CompositeExtractor().extract_batch([])

    def test_same_category_closer_than_different(self, small_images):
        """Images of one category should be closer in feature space on average."""
        extractor = CompositeExtractor()
        features = extractor.extract_batch(small_images)
        labels = np.array([img.category for img in small_images])
        # Standardise columns so no single feature dominates.
        features = (features - features.mean(axis=0)) / (features.std(axis=0) + 1e-9)
        same, different = [], []
        for i in range(len(small_images)):
            for j in range(i + 1, len(small_images)):
                distance = np.linalg.norm(features[i] - features[j])
                (same if labels[i] == labels[j] else different).append(distance)
        assert np.mean(same) < np.mean(different)


class TestFeatureNormalizer:
    def test_transform_standardises(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(3.0, 2.0, size=(100, 5))
        normalizer = FeatureNormalizer()
        scaled = normalizer.fit_transform(matrix)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-10)

    def test_transform_before_fit_raises(self):
        with pytest.raises(ValidationError):
            FeatureNormalizer().transform(np.ones((2, 3)))

    def test_out_of_sample_uses_fit_statistics(self):
        rng = np.random.default_rng(4)
        train = rng.normal(size=(50, 3))
        normalizer = FeatureNormalizer().fit(train)
        row = np.array([[10.0, 10.0, 10.0]])
        scaled = normalizer.transform(row)
        expected = (row - train.mean(axis=0)) / train.std(axis=0)
        np.testing.assert_allclose(scaled, expected)

    def test_is_fitted_flag(self):
        normalizer = FeatureNormalizer()
        assert not normalizer.is_fitted
        normalizer.fit(np.random.default_rng(5).normal(size=(10, 2)))
        assert normalizer.is_fitted

    def test_constant_column_maps_to_zero(self):
        matrix = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        normalizer = FeatureNormalizer()
        np.testing.assert_allclose(normalizer.fit_transform(matrix)[:, 0], 0.0)
        np.testing.assert_allclose(normalizer.transform(matrix)[:, 0], 0.0)
        np.testing.assert_allclose(normalizer.transform(matrix[:1] + 5.0)[:, 0], 5.0)


def _same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _normalizer_inputs():
    rng = np.random.default_rng(8)
    spread = rng.normal(5.0, 3.0, size=(257, 7))
    constant = spread.copy()
    constant[:, 2] = 4.25
    return {
        "float": spread,
        "constant-column": constant,
        "one-row": spread[:1],
        "integer": rng.integers(-50, 50, size=(64, 5)),
        "fortran": np.asfortranarray(spread),
    }


class TestFitTransformBytes:
    """``fit_transform`` bytes: ``fit`` then ``transform``, and the plain formula."""

    @pytest.mark.parametrize("name", sorted(_normalizer_inputs()))
    def test_equals_fit_then_transform_byte_for_byte(self, name):
        # Mutations caught: dividing before subtracting
        # (``x / std - mean / std``), multiplying by ``1 / std``, and a
        # standard deviation other than numpy's ``std(axis=0)``.
        matrix = _normalizer_inputs()[name]
        one_pass = FeatureNormalizer()
        scaled = one_pass.fit_transform(matrix)
        _same_bytes(scaled, FeatureNormalizer().fit(matrix).transform(matrix))
        _same_bytes(one_pass.transform(matrix), scaled)
        _same_bytes(one_pass.mean_, matrix.mean(axis=0))
        _same_bytes(one_pass.std_, matrix.std(axis=0))
        std = matrix.std(axis=0)
        reference = (matrix - matrix.mean(axis=0)) / np.where(std < 1e-12, 1.0, std)
        _same_bytes(scaled, reference)

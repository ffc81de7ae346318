"""Tests for repro.imaging.filters and repro.imaging.canny."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.imaging.canny import canny_edges
from repro.imaging.filters import (
    convolve2d,
    gaussian_blur,
    gaussian_kernel,
    sobel_gradients,
)


class TestConvolve2d:
    def test_identity_kernel(self):
        image = np.random.default_rng(0).random((10, 12))
        identity = np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=float)
        np.testing.assert_allclose(convolve2d(image, identity), image, atol=1e-12)

    def test_shape_preserved(self):
        image = np.random.default_rng(1).random((9, 7))
        kernel = np.ones((3, 3)) / 9.0
        assert convolve2d(image, kernel).shape == image.shape

    def test_box_filter_averages(self):
        image = np.ones((6, 6))
        kernel = np.ones((3, 3)) / 9.0
        np.testing.assert_allclose(convolve2d(image, kernel), 1.0, atol=1e-12)

    def test_kernel_flip(self):
        # Convolution (not correlation): an asymmetric kernel must be flipped.
        image = np.zeros((5, 5))
        image[2, 2] = 1.0
        kernel = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        result = convolve2d(image, kernel)
        # Convolving an impulse with the kernel reproduces the (flipped)
        # kernel centred at the impulse: the weight left of the kernel centre
        # lands left of the impulse, unlike correlation which would mirror it.
        assert result[2, 1] == pytest.approx(1.0)
        assert result[2, 3] == pytest.approx(0.0)

    def test_rejects_1d_input(self):
        with pytest.raises(ValidationError):
            convolve2d(np.ones(5), np.ones((3, 3)))


class TestGaussian:
    def test_kernel_normalised(self):
        kernel = gaussian_kernel(1.5)
        assert kernel.sum() == pytest.approx(1.0)

    def test_kernel_symmetric(self):
        kernel = gaussian_kernel(1.0)
        np.testing.assert_allclose(kernel, kernel.T)
        np.testing.assert_allclose(kernel, kernel[::-1, ::-1])

    def test_kernel_peak_at_centre(self):
        kernel = gaussian_kernel(2.0)
        centre = tuple(s // 2 for s in kernel.shape)
        assert kernel[centre] == kernel.max()

    def test_invalid_sigma(self):
        with pytest.raises(ValidationError):
            gaussian_kernel(0.0)

    def test_blur_reduces_variance(self):
        rng = np.random.default_rng(2)
        noisy = rng.random((32, 32))
        blurred = gaussian_blur(noisy, sigma=2.0)
        assert blurred.var() < noisy.var()

    def test_blur_preserves_constant(self):
        constant = np.full((16, 16), 0.7)
        np.testing.assert_allclose(gaussian_blur(constant, 1.0), 0.7, atol=1e-10)


class TestSobel:
    def test_vertical_edge_detected_by_gx(self):
        image = np.zeros((10, 10))
        image[:, 5:] = 1.0
        gx, gy = sobel_gradients(image)
        assert np.abs(gx).max() > 1.0
        assert np.abs(gy[2:-2, 2:-2]).max() == pytest.approx(0.0, abs=1e-12)

    def test_horizontal_edge_detected_by_gy(self):
        image = np.zeros((10, 10))
        image[5:, :] = 1.0
        gx, gy = sobel_gradients(image)
        assert np.abs(gy).max() > 1.0
        assert np.abs(gx[2:-2, 2:-2]).max() == pytest.approx(0.0, abs=1e-12)

    def test_constant_image_zero_gradient(self):
        gx, gy = sobel_gradients(np.full((8, 8), 0.3))
        np.testing.assert_allclose(gx, 0.0, atol=1e-12)
        np.testing.assert_allclose(gy, 0.0, atol=1e-12)


class TestCanny:
    def test_detects_step_edge(self):
        image = np.zeros((20, 20))
        image[:, 10:] = 1.0
        result = canny_edges(image)
        assert np.count_nonzero(result.edges) > 0
        # Edge pixels concentrate around column 10.
        edge_cols = np.where(result.edges)[1]
        assert np.all(np.abs(edge_cols - 10) <= 2)

    def test_constant_image_has_no_edges(self):
        result = canny_edges(np.full((16, 16), 0.5))
        assert np.count_nonzero(result.edges) == 0

    def test_edges_are_thin(self):
        image = np.zeros((30, 30))
        image[:, 15:] = 1.0
        result = canny_edges(image)
        # Non-maximum suppression keeps at most ~2 pixels per row on a step edge.
        per_row = result.edges.sum(axis=1)
        assert per_row.max() <= 3

    def test_edge_directions_match_edge_orientation(self):
        image = np.zeros((24, 24))
        image[:, 12:] = 1.0  # vertical edge -> horizontal gradient
        result = canny_edges(image)
        directions = np.abs(result.edge_directions())
        # Gradient direction is ~0 or ~pi (pointing along x).
        assert np.all(
            (directions < 0.3) | (np.abs(directions - np.pi) < 0.3)
        )

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValidationError):
            canny_edges(np.zeros((8, 8)), low_threshold=0.5, high_threshold=0.2)

    def test_rejects_rgb_input(self):
        with pytest.raises(ValidationError):
            canny_edges(np.zeros((8, 8, 3)))

    def test_hysteresis_links_weak_to_strong(self):
        # A diagonal ramp edge: weak sections connected to strong ones survive.
        image = np.zeros((30, 30))
        for row in range(30):
            image[row, 15:] = 0.4 + 0.02 * row
        result = canny_edges(image, low_threshold=0.1, high_threshold=0.4)
        rows_with_edges = np.unique(np.where(result.edges)[0])
        assert rows_with_edges.size >= 20

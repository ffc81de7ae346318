"""Tests for repro.imaging.color and repro.imaging.image."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ValidationError
from repro.imaging.color import hsv_to_rgb, rgb_to_grayscale, rgb_to_hsv
from repro.imaging.image import Image


class TestRgbToHsv:
    def test_pure_red(self):
        pixel = np.array([[[1.0, 0.0, 0.0]]])
        hsv = rgb_to_hsv(pixel)[0, 0]
        assert hsv[0] == pytest.approx(0.0)
        assert hsv[1] == pytest.approx(1.0)
        assert hsv[2] == pytest.approx(1.0)

    def test_pure_green(self):
        pixel = np.array([[[0.0, 1.0, 0.0]]])
        hsv = rgb_to_hsv(pixel)[0, 0]
        assert hsv[0] == pytest.approx(1.0 / 3.0)

    def test_pure_blue(self):
        pixel = np.array([[[0.0, 0.0, 1.0]]])
        hsv = rgb_to_hsv(pixel)[0, 0]
        assert hsv[0] == pytest.approx(2.0 / 3.0)

    def test_gray_has_zero_saturation(self):
        pixel = np.array([[[0.5, 0.5, 0.5]]])
        hsv = rgb_to_hsv(pixel)[0, 0]
        assert hsv[1] == pytest.approx(0.0)
        assert hsv[2] == pytest.approx(0.5)

    def test_black(self):
        pixel = np.zeros((1, 1, 3))
        hsv = rgb_to_hsv(pixel)[0, 0]
        assert hsv[1] == pytest.approx(0.0)
        assert hsv[2] == pytest.approx(0.0)

    def test_output_range(self):
        rng = np.random.default_rng(0)
        image = rng.random((16, 16, 3))
        hsv = rgb_to_hsv(image)
        assert hsv.min() >= 0.0
        assert hsv.max() <= 1.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            rgb_to_hsv(np.zeros((4, 4)))

    @given(
        hnp.arrays(np.float64, (3, 3, 3), elements=st.floats(0.0, 1.0))
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, rgb):
        hsv = rgb_to_hsv(rgb)
        back = hsv_to_rgb(hsv)
        np.testing.assert_allclose(back, np.clip(rgb, 0, 1), atol=1e-8)


class TestGrayscale:
    def test_weights_sum_to_one(self):
        white = np.ones((2, 2, 3))
        np.testing.assert_allclose(rgb_to_grayscale(white), 1.0)

    def test_black(self):
        np.testing.assert_allclose(rgb_to_grayscale(np.zeros((2, 2, 3))), 0.0)

    def test_green_brighter_than_blue(self):
        green = np.zeros((1, 1, 3)); green[..., 1] = 1.0
        blue = np.zeros((1, 1, 3)); blue[..., 2] = 1.0
        assert rgb_to_grayscale(green)[0, 0] > rgb_to_grayscale(blue)[0, 0]


class TestImage:
    def test_valid_construction(self):
        image = Image(pixels=np.zeros((8, 8, 3)), image_id=3, category=1, category_name="cat")
        assert image.height == 8
        assert image.width == 8
        assert image.shape == (8, 8, 3)

    def test_pixels_clipped(self):
        image = Image(pixels=np.full((4, 4, 3), 2.0))
        assert image.pixels.max() == pytest.approx(1.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            Image(pixels=np.zeros((8, 8)))

    def test_rejects_nan(self):
        pixels = np.zeros((4, 4, 3))
        pixels[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            Image(pixels=pixels)

    def test_rejects_tiny_image(self):
        with pytest.raises(ValidationError):
            Image(pixels=np.zeros((1, 5, 3)))

    def test_grayscale_shape(self):
        image = Image(pixels=np.random.default_rng(0).random((6, 7, 3)))
        assert image.grayscale().shape == (6, 7)

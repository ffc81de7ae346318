"""Colour palettes for the synthetic category recipes.

A palette is a small set of HSV anchor colours plus jitter amplitudes.  Each
rendered image samples its dominant colours from its category palette, which
is what makes the 9-dimensional HSV colour-moment feature cluster by
category while still overlapping between visually similar categories
(e.g. "horse" and "antelope" share earthy palettes, like in COREL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.imaging.color import hsv_to_rgb
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["Palette", "sample_palette_color"]


@dataclass(frozen=True)
class Palette:
    """A category colour palette in HSV space.

    Attributes
    ----------
    anchors:
        Sequence of ``(h, s, v)`` anchor colours with components in ``[0, 1]``.
    hue_jitter, saturation_jitter, value_jitter:
        Standard deviation of the Gaussian jitter applied per sample.
    """

    anchors: Tuple[Tuple[float, float, float], ...]
    hue_jitter: float = 0.02
    saturation_jitter: float = 0.08
    value_jitter: float = 0.08

    def __post_init__(self) -> None:
        if not self.anchors:
            raise ValidationError("a palette needs at least one anchor colour")
        for anchor in self.anchors:
            if len(anchor) != 3:
                raise ValidationError(f"palette anchors must be (h, s, v), got {anchor}")

    def sample_hsv(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Sample *count* jittered HSV colours from the palette."""
        anchors = np.asarray(self.anchors, dtype=np.float64)
        indices = rng.integers(0, len(anchors), size=count)
        base = anchors[indices]
        jitter = np.stack(
            [
                rng.normal(0.0, self.hue_jitter, size=count),
                rng.normal(0.0, self.saturation_jitter, size=count),
                rng.normal(0.0, self.value_jitter, size=count),
            ],
            axis=1,
        )
        sampled = base + jitter
        sampled[:, 0] = np.mod(sampled[:, 0], 1.0)
        sampled[:, 1:] = np.clip(sampled[:, 1:], 0.0, 1.0)
        return sampled

    def sample_rgb(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Sample *count* jittered colours converted to RGB."""
        hsv = self.sample_hsv(rng, count)
        # hsv_to_rgb expects an image-shaped array; use a 1-pixel-high image.
        rgb = hsv_to_rgb(hsv[None, :, :])[0]
        return rgb


def sample_palette_color(
    palette: Palette, random_state: RandomState = None
) -> Tuple[float, float, float]:
    """Convenience helper returning a single RGB colour from *palette*."""
    rng = ensure_rng(random_state)
    rgb = palette.sample_rgb(rng, 1)[0]
    return float(rgb[0]), float(rgb[1]), float(rgb[2])

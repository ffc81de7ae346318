"""The :class:`Image` value type used throughout the library.

Images are stored as float64 arrays in ``[0, 1]`` with shape ``(H, W, 3)``
(RGB).  The class is a thin wrapper that validates shape/range once at the
boundary so downstream code can assume well-formed data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["Image"]


@dataclass(frozen=True)
class Image:
    """An RGB image with pixel values in ``[0, 1]``.

    Attributes
    ----------
    pixels:
        ``(H, W, 3)`` float64 array of RGB values in ``[0, 1]``.
    image_id:
        Optional integer identifier (index in its dataset).
    category:
        Optional integer category label (semantic class).
    category_name:
        Optional human-readable category name.
    """

    pixels: np.ndarray
    image_id: Optional[int] = None
    category: Optional[int] = None
    category_name: Optional[str] = None

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels, dtype=np.float64)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ValidationError(
                f"Image pixels must have shape (H, W, 3), got {pixels.shape}"
            )
        if pixels.shape[0] < 2 or pixels.shape[1] < 2:
            raise ValidationError(
                f"Image must be at least 2x2 pixels, got {pixels.shape[:2]}"
            )
        if not np.all(np.isfinite(pixels)):
            raise ValidationError("Image pixels contain NaN or infinite values")
        pixels = np.clip(pixels, 0.0, 1.0)
        object.__setattr__(self, "pixels", pixels)

    @property
    def height(self) -> int:
        """Image height in pixels."""
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        """Image width in pixels."""
        return int(self.pixels.shape[1])

    @property
    def shape(self) -> tuple[int, int, int]:
        """Full ``(H, W, 3)`` shape."""
        return tuple(self.pixels.shape)  # type: ignore[return-value]

    def grayscale(self) -> np.ndarray:
        """Return the luminance image as an ``(H, W)`` float array."""
        from repro.imaging.color import rgb_to_grayscale

        return rgb_to_grayscale(self.pixels)

    def hsv(self) -> np.ndarray:
        """Return the HSV representation as an ``(H, W, 3)`` float array."""
        from repro.imaging.color import rgb_to_hsv

        return rgb_to_hsv(self.pixels)

"""A from-scratch Canny edge detector.

The paper's edge feature is an 18-bin edge-direction histogram computed on
the output of a Canny detector (Section 6.2).  This module implements the
standard pipeline: Gaussian smoothing → Sobel gradients → non-maximum
suppression → double-threshold hysteresis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.exceptions import ValidationError
from repro.imaging.filters import gaussian_blur, sobel_gradients

__all__ = ["CannyResult", "canny_edges"]


@dataclass(frozen=True)
class CannyResult:
    """Output of the Canny detector.

    Attributes
    ----------
    edges:
        Boolean ``(H, W)`` edge mask.
    magnitude:
        Gradient magnitude at every pixel.
    direction:
        Gradient direction in radians in ``[-pi, pi]`` at every pixel.
    """

    edges: np.ndarray
    magnitude: np.ndarray
    direction: np.ndarray

    def edge_directions(self) -> np.ndarray:
        """Gradient directions (radians) of the edge pixels only."""
        return self.direction[self.edges]


def _non_maximum_suppression(magnitude: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Thin edges by keeping only local maxima along the gradient direction."""
    height, width = magnitude.shape
    suppressed = np.zeros_like(magnitude)
    # Quantise direction to one of 4 neighbour axes: 0, 45, 90, 135 degrees.
    angle = np.rad2deg(direction) % 180.0

    padded = np.pad(magnitude, 1, mode="constant")
    center = padded[1:-1, 1:-1]

    east_west = np.maximum(padded[1:-1, 2:], padded[1:-1, :-2])
    north_south = np.maximum(padded[2:, 1:-1], padded[:-2, 1:-1])
    diag_ne = np.maximum(padded[2:, :-2], padded[:-2, 2:])
    diag_nw = np.maximum(padded[2:, 2:], padded[:-2, :-2])

    bin0 = (angle < 22.5) | (angle >= 157.5)
    bin45 = (angle >= 22.5) & (angle < 67.5)
    bin90 = (angle >= 67.5) & (angle < 112.5)
    bin135 = (angle >= 112.5) & (angle < 157.5)

    keep = (
        (bin0 & (center >= east_west))
        | (bin45 & (center >= diag_ne))
        | (bin90 & (center >= north_south))
        | (bin135 & (center >= diag_nw))
    )
    suppressed[keep] = magnitude[keep]
    return suppressed


def _hysteresis(strong: np.ndarray, weak: np.ndarray) -> np.ndarray:
    """Keep weak edges only when connected (8-neighbourhood) to a strong edge."""
    candidates = strong | weak
    labels, count = ndimage.label(candidates, structure=np.ones((3, 3), dtype=int))
    if count == 0:
        return np.zeros_like(strong, dtype=bool)
    has_strong = ndimage.labeled_comprehension(
        strong, labels, index=np.arange(1, count + 1), func=np.any, out_dtype=bool, default=False
    )
    keep_labels = np.zeros(count + 1, dtype=bool)
    keep_labels[1:] = has_strong
    return keep_labels[labels]


def canny_edges(
    image: np.ndarray,
    *,
    sigma: float = 1.0,
    low_threshold: float = 0.1,
    high_threshold: float = 0.2,
) -> CannyResult:
    """Run the Canny edge detector on a 2-D grayscale image in ``[0, 1]``.

    Parameters
    ----------
    image:
        ``(H, W)`` grayscale image.
    sigma:
        Standard deviation of the Gaussian pre-smoothing.
    low_threshold, high_threshold:
        Hysteresis thresholds expressed as fractions of the maximum gradient
        magnitude; ``low_threshold`` must not exceed ``high_threshold``.
    """
    data = np.asarray(image, dtype=np.float64)
    if data.ndim != 2:
        raise ValidationError(f"canny_edges expects a 2-D image, got shape {data.shape}")
    if low_threshold > high_threshold:
        raise ValidationError(
            f"low_threshold ({low_threshold}) must be <= high_threshold ({high_threshold})"
        )

    smoothed = gaussian_blur(data, sigma)
    gx, gy = sobel_gradients(smoothed)
    magnitude = np.hypot(gx, gy)
    direction = np.arctan2(gy, gx)

    thinned = _non_maximum_suppression(magnitude, direction)
    peak = thinned.max()
    if peak <= 0:
        edges = np.zeros_like(data, dtype=bool)
        return CannyResult(edges=edges, magnitude=magnitude, direction=direction)

    strong = thinned >= high_threshold * peak
    weak = (thinned >= low_threshold * peak) & ~strong
    edges = _hysteresis(strong, weak)
    return CannyResult(edges=edges, magnitude=magnitude, direction=direction)

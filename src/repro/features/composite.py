"""The 36-dimensional composite feature used by all retrieval schemes.

Concatenates the three extractors of the paper — colour moments (9), edge
direction histogram (18) and wavelet texture (9) — into a single descriptor.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.features.base import FeatureExtractor
from repro.features.color_moments import ColorMomentsExtractor
from repro.features.edge_histogram import EdgeDirectionHistogramExtractor
from repro.features.wavelet_texture import WaveletTextureExtractor
from repro.imaging.image import Image

__all__ = ["CompositeExtractor"]


class CompositeExtractor(FeatureExtractor):
    """Concatenation of colour, edge and texture descriptors (36-d default)."""

    name = "composite"

    def __init__(self, extractors: Optional[Sequence[FeatureExtractor]] = None) -> None:
        if extractors is None:
            extractors = (
                ColorMomentsExtractor(),
                EdgeDirectionHistogramExtractor(),
                WaveletTextureExtractor(),
            )
        if len(extractors) == 0:
            raise ValueError("CompositeExtractor needs at least one extractor")
        self.extractors: List[FeatureExtractor] = list(extractors)

    @property
    def dimension(self) -> int:
        """Sum of the component extractor dimensions (9 + 18 + 9 = 36 by default)."""
        return sum(extractor.dimension for extractor in self.extractors)

    def extract(self, image: Image) -> np.ndarray:
        parts = [extractor.extract(image) for extractor in self.extractors]
        return np.concatenate(parts)

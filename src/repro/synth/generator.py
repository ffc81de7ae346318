"""Renderer turning :class:`CategorySpec` recipes into images.

The generator draws, for each image: a background filled with a palette
colour blended with the category texture, plus a small number of foreground
shapes filled with contrasting palette colours.  All geometric and photometric
parameters receive per-image jitter so images within a category are similar
but never identical, and categories sharing archetypes overlap in feature
space — the property the relevance-feedback experiments rely on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.imaging.image import Image
from repro.synth.categories import CategorySpec
from repro.synth.shapes import draw_blob, draw_ellipse, draw_polygon, draw_stripes
from repro.synth.textures import (
    checkerboard_texture,
    gradient_texture,
    noise_texture,
    sinusoidal_texture,
)
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["CorelLikeGenerator"]


class CorelLikeGenerator:
    """Render synthetic COREL-like images from category recipes.

    Parameters
    ----------
    image_size:
        Side length in pixels of the square images produced.
    random_state:
        Seed or generator controlling every random decision of the renderer.
    """

    def __init__(self, *, image_size: int = 48, random_state: RandomState = None) -> None:
        if image_size < 16:
            raise ValidationError(f"image_size must be >= 16, got {image_size}")
        self.image_size = int(image_size)
        self._rng = ensure_rng(random_state)

    # ------------------------------------------------------------------ API
    def generate_image(
        self,
        spec: CategorySpec,
        *,
        image_id: Optional[int] = None,
        category: Optional[int] = None,
    ) -> Image:
        """Render a single image for category recipe *spec*."""
        pixels = self._render(spec)
        return Image(
            pixels=pixels,
            image_id=image_id,
            category=category,
            category_name=spec.name,
        )

    def generate_category(
        self,
        spec: CategorySpec,
        count: int,
        *,
        category: Optional[int] = None,
        start_id: int = 0,
    ) -> List[Image]:
        """Render *count* images of one category."""
        if count < 1:
            raise ValidationError(f"count must be >= 1, got {count}")
        return [
            self.generate_image(spec, image_id=start_id + index, category=category)
            for index in range(count)
        ]

    def generate_corpus(
        self, specs: Sequence[CategorySpec], images_per_category: int
    ) -> List[Image]:
        """Render a full corpus: *images_per_category* images for every spec."""
        corpus: List[Image] = []
        for category_index, spec in enumerate(specs):
            corpus.extend(
                self.generate_category(
                    spec,
                    images_per_category,
                    category=category_index,
                    start_id=len(corpus),
                )
            )
        return corpus

    # ------------------------------------------------------------ rendering
    def _render(self, spec: CategorySpec) -> np.ndarray:
        size = self.image_size
        rng = self._rng

        background_rgb = spec.palette.sample_rgb(rng, 1)[0]
        texture = self._render_texture(spec, rng)
        strength = float(
            np.clip(spec.texture_strength + rng.normal(0.0, 0.1 * spec.jitter), 0.0, 1.0)
        )

        # Background = flat palette colour modulated by the grayscale texture.
        canvas = np.empty((size, size, 3), dtype=np.float64)
        modulation = 1.0 - strength + strength * texture
        for channel in range(3):
            canvas[..., channel] = background_rgb[channel] * modulation

        # Foreground shapes with contrasting palette colours.
        shape_count = self._jittered_count(spec.shape_count, rng, spec.jitter)
        for _ in range(shape_count):
            mask = self._render_shape(spec, rng)
            if mask is None or not mask.any():
                continue
            fg_rgb = spec.palette.sample_rgb(rng, 1)[0]
            contrast = spec.edge_contrast * (1.0 + rng.normal(0.0, spec.jitter))
            fg_rgb = np.clip(fg_rgb + np.sign(rng.normal()) * contrast, 0.0, 1.0)
            canvas[mask] = 0.25 * canvas[mask] + 0.75 * fg_rgb

        # Global photometric jitter (illumination) plus mild pixel noise.
        gain = 1.0 + rng.normal(0.0, 0.08 * (1.0 + spec.jitter))
        bias = rng.normal(0.0, 0.04)
        canvas = canvas * gain + bias
        canvas += rng.normal(0.0, 0.015, size=canvas.shape)
        return np.clip(canvas, 0.0, 1.0)

    def _render_texture(self, spec: CategorySpec, rng: np.random.Generator) -> np.ndarray:
        size = self.image_size
        scale_jitter = 1.0 + rng.normal(0.0, spec.jitter)
        scale = max(spec.texture_scale * scale_jitter, 1.0)
        orientation = rng.uniform(0.0, np.pi)
        if spec.texture == "noise":
            return noise_texture(
                size, size, scale=max(int(round(scale)), 2), octaves=3, random_state=rng
            )
        if spec.texture == "sinusoid":
            return sinusoidal_texture(
                size, size, frequency=scale, orientation=orientation,
                phase=rng.uniform(0.0, 2.0 * np.pi),
            )
        if spec.texture == "checker":
            return checkerboard_texture(size, size, cells=max(int(round(scale)), 2))
        # "gradient"
        return gradient_texture(size, size, orientation=orientation)

    def _render_shape(
        self, spec: CategorySpec, rng: np.random.Generator
    ) -> Optional[np.ndarray]:
        size = self.image_size
        if spec.shape == "none":
            return None
        center = (
            float(np.clip(0.5 + rng.normal(0.0, spec.jitter), 0.15, 0.85)),
            float(np.clip(0.5 + rng.normal(0.0, spec.jitter), 0.15, 0.85)),
        )
        scale = max(spec.shape_scale * (1.0 + rng.normal(0.0, spec.jitter)), 0.05)
        if spec.shape == "blob":
            return draw_blob(
                size, size, center=center, mean_radius=scale,
                irregularity=0.35, lobes=5, random_state=rng,
            )
        if spec.shape == "ellipse":
            aspect = rng.uniform(0.5, 1.0)
            return draw_ellipse(
                size, size, center=center,
                radii=(scale, scale * aspect), rotation=rng.uniform(0.0, np.pi),
            )
        if spec.shape == "polygon":
            sides = int(rng.integers(3, 7))
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=sides))
            radii = scale * rng.uniform(0.7, 1.0, size=sides)
            vertices = [
                (center[0] + r * np.sin(a), center[1] + r * np.cos(a))
                for r, a in zip(radii, angles)
            ]
            return draw_polygon(size, size, vertices)
        # "stripes"
        return draw_stripes(
            size, size,
            count=max(int(round(4 + 8 * scale)), 2),
            orientation=rng.uniform(0.0, np.pi),
            duty_cycle=float(np.clip(rng.normal(0.5, 0.1), 0.2, 0.8)),
        )

    @staticmethod
    def _jittered_count(base: int, rng: np.random.Generator, jitter: float) -> int:
        if base <= 0:
            return 0
        delta = int(rng.integers(-1, 2)) if jitter > 0.1 else 0
        return max(base + delta, 0)

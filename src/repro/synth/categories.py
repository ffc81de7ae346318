"""Category recipes for the synthetic COREL-like corpus.

Each category is a :class:`CategorySpec`: a named recipe combining a colour
palette, a dominant texture programme and a shape programme, plus per-image
jitter amplitudes.  The 50 categories reuse a smaller number of visual
archetypes (animals share earthy palettes and blob silhouettes, man-made
objects share geometric shapes, sceneries share gradients, ...) so that —
exactly as with the real COREL categories the paper uses — some categories
are easy to separate by low-level features and others overlap substantially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.exceptions import ValidationError
from repro.synth.palettes import Palette

__all__ = ["CategorySpec", "corel_category_specs", "COREL_CATEGORY_NAMES"]


@dataclass(frozen=True)
class CategorySpec:
    """Parametric recipe used to render every image of one category.

    Attributes
    ----------
    name:
        Human-readable category name (mirrors COREL category semantics).
    palette:
        HSV colour palette for backgrounds and foreground objects.
    texture:
        Texture programme: one of ``"noise"``, ``"sinusoid"``, ``"checker"``,
        ``"gradient"``.
    texture_scale:
        Texture frequency/scale parameter (cycles or base-grid size).
    texture_strength:
        Blend weight of the texture over the flat background colour.
    shape:
        Shape programme: one of ``"blob"``, ``"ellipse"``, ``"polygon"``,
        ``"stripes"``, ``"none"``.
    shape_count:
        Number of foreground shapes drawn per image.
    shape_scale:
        Typical normalised radius of each foreground shape.
    edge_contrast:
        Brightness offset of foreground objects against the background,
        controlling how strongly the Canny detector fires on their contours.
    jitter:
        Global geometric jitter (position/size variability) per image.
    """

    name: str
    palette: Palette
    texture: str = "noise"
    texture_scale: float = 4.0
    texture_strength: float = 0.5
    shape: str = "blob"
    shape_count: int = 2
    shape_scale: float = 0.25
    edge_contrast: float = 0.35
    jitter: float = 0.15

    _VALID_TEXTURES = ("noise", "sinusoid", "checker", "gradient")
    _VALID_SHAPES = ("blob", "ellipse", "polygon", "stripes", "none")

    def __post_init__(self) -> None:
        if self.texture not in self._VALID_TEXTURES:
            raise ValidationError(
                f"unknown texture '{self.texture}', expected one of {self._VALID_TEXTURES}"
            )
        if self.shape not in self._VALID_SHAPES:
            raise ValidationError(
                f"unknown shape '{self.shape}', expected one of {self._VALID_SHAPES}"
            )
        if self.shape_count < 0:
            raise ValidationError("shape_count must be non-negative")
        if not 0.0 <= self.texture_strength <= 1.0:
            raise ValidationError("texture_strength must be in [0, 1]")


def _palette(*anchors: Tuple[float, float, float], hue_jitter: float = 0.02) -> Palette:
    return Palette(anchors=tuple(anchors), hue_jitter=hue_jitter)


#: The 50 category names, ordered; the first 20 form the 20-Category dataset
#: (mirroring the paper's nesting of the two datasets drawn from COREL CDs).
COREL_CATEGORY_NAMES: Tuple[str, ...] = (
    "antique", "antelope", "aviation", "balloon", "botany",
    "butterfly", "car", "cat", "dog", "firework",
    "horse", "lizard", "sunset", "beach", "mountain",
    "flower", "fish", "architecture", "waterfall", "desert",
    "eagle", "elephant", "forest", "fruit", "glacier",
    "harbor", "island", "jewelry", "kangaroo", "lake",
    "lion", "model", "night_scene", "ocean", "orchid",
    "owl", "penguin", "pyramid", "rose", "sailboat",
    "ski", "stamp", "steam_train", "surfing", "texture_pattern",
    "tiger", "tulip", "waterfowl", "windmill", "zebra",
)


def _build_specs() -> Dict[str, CategorySpec]:
    """Build the full library of 50 category recipes."""
    specs: Dict[str, CategorySpec] = {}

    def add(name: str, **kwargs) -> None:
        specs[name] = CategorySpec(name=name, **kwargs)

    # --- animals: earthy/warm palettes, blob silhouettes, moderate noise ---
    add("antelope", palette=_palette((0.08, 0.55, 0.55), (0.10, 0.45, 0.70), (0.26, 0.40, 0.45)),
        texture="noise", texture_scale=5, texture_strength=0.45,
        shape="blob", shape_count=2, shape_scale=0.22, edge_contrast=0.30)
    add("horse", palette=_palette((0.06, 0.60, 0.45), (0.08, 0.50, 0.60), (0.30, 0.35, 0.50)),
        texture="noise", texture_scale=4, texture_strength=0.40,
        shape="blob", shape_count=1, shape_scale=0.30, edge_contrast=0.35)
    add("cat", palette=_palette((0.09, 0.35, 0.65), (0.05, 0.25, 0.80), (0.07, 0.45, 0.40)),
        texture="noise", texture_scale=6, texture_strength=0.50,
        shape="blob", shape_count=1, shape_scale=0.32, edge_contrast=0.28)
    add("dog", palette=_palette((0.07, 0.40, 0.55), (0.10, 0.30, 0.70), (0.33, 0.30, 0.45)),
        texture="noise", texture_scale=5, texture_strength=0.45,
        shape="blob", shape_count=1, shape_scale=0.30, edge_contrast=0.30)
    add("elephant", palette=_palette((0.08, 0.15, 0.45), (0.10, 0.20, 0.55), (0.25, 0.30, 0.40)),
        texture="noise", texture_scale=4, texture_strength=0.35,
        shape="blob", shape_count=1, shape_scale=0.38, edge_contrast=0.25)
    add("lion", palette=_palette((0.09, 0.65, 0.60), (0.11, 0.55, 0.70), (0.08, 0.45, 0.50)),
        texture="noise", texture_scale=5, texture_strength=0.50,
        shape="blob", shape_count=1, shape_scale=0.33, edge_contrast=0.32)
    add("tiger", palette=_palette((0.07, 0.75, 0.65), (0.09, 0.65, 0.70), (0.05, 0.60, 0.55)),
        texture="sinusoid", texture_scale=9, texture_strength=0.55,
        shape="blob", shape_count=1, shape_scale=0.34, edge_contrast=0.40)
    add("zebra", palette=_palette((0.0, 0.02, 0.85), (0.0, 0.05, 0.25), (0.25, 0.15, 0.60)),
        texture="sinusoid", texture_scale=11, texture_strength=0.70,
        shape="stripes", shape_count=1, shape_scale=0.30, edge_contrast=0.55)
    add("kangaroo", palette=_palette((0.07, 0.50, 0.50), (0.09, 0.40, 0.65), (0.12, 0.35, 0.55)),
        texture="noise", texture_scale=5, texture_strength=0.40,
        shape="blob", shape_count=2, shape_scale=0.25, edge_contrast=0.30)
    add("lizard", palette=_palette((0.28, 0.60, 0.45), (0.22, 0.55, 0.55), (0.17, 0.50, 0.50)),
        texture="noise", texture_scale=7, texture_strength=0.55,
        shape="blob", shape_count=1, shape_scale=0.28, edge_contrast=0.30)
    add("cat_family_owl", palette=_palette((0.08, 0.35, 0.45), (0.10, 0.30, 0.60), (0.06, 0.40, 0.35)),
        texture="noise", texture_scale=6, texture_strength=0.50,
        shape="ellipse", shape_count=2, shape_scale=0.24, edge_contrast=0.32)
    specs["owl"] = CategorySpec(
        name="owl", palette=specs["cat_family_owl"].palette, texture="noise",
        texture_scale=6, texture_strength=0.50, shape="ellipse", shape_count=2,
        shape_scale=0.24, edge_contrast=0.32)
    del specs["cat_family_owl"]
    add("penguin", palette=_palette((0.58, 0.30, 0.35), (0.0, 0.02, 0.90), (0.60, 0.45, 0.55)),
        texture="gradient", texture_scale=2, texture_strength=0.35,
        shape="ellipse", shape_count=3, shape_scale=0.20, edge_contrast=0.45)
    add("eagle", palette=_palette((0.55, 0.25, 0.75), (0.08, 0.45, 0.40), (0.58, 0.20, 0.85)),
        texture="gradient", texture_scale=2, texture_strength=0.30,
        shape="blob", shape_count=1, shape_scale=0.26, edge_contrast=0.40)
    add("waterfowl", palette=_palette((0.55, 0.45, 0.60), (0.52, 0.40, 0.50), (0.10, 0.30, 0.70)),
        texture="noise", texture_scale=4, texture_strength=0.35,
        shape="blob", shape_count=2, shape_scale=0.20, edge_contrast=0.35)
    add("fish", palette=_palette((0.55, 0.65, 0.55), (0.50, 0.60, 0.65), (0.02, 0.70, 0.75)),
        texture="noise", texture_scale=5, texture_strength=0.40,
        shape="ellipse", shape_count=3, shape_scale=0.18, edge_contrast=0.40)
    add("butterfly", palette=_palette((0.85, 0.65, 0.75), (0.12, 0.75, 0.80), (0.60, 0.55, 0.70)),
        texture="noise", texture_scale=6, texture_strength=0.40,
        shape="polygon", shape_count=2, shape_scale=0.24, edge_contrast=0.45)

    # --- plants / botany: green-dominant, organic shapes ---
    add("botany", palette=_palette((0.30, 0.60, 0.45), (0.26, 0.65, 0.55), (0.34, 0.50, 0.40)),
        texture="noise", texture_scale=7, texture_strength=0.55,
        shape="blob", shape_count=3, shape_scale=0.20, edge_contrast=0.25)
    add("forest", palette=_palette((0.31, 0.65, 0.35), (0.28, 0.60, 0.45), (0.35, 0.55, 0.30)),
        texture="noise", texture_scale=8, texture_strength=0.65,
        shape="none", shape_count=0, shape_scale=0.0, edge_contrast=0.20)
    add("flower", palette=_palette((0.92, 0.70, 0.80), (0.95, 0.60, 0.85), (0.30, 0.55, 0.45)),
        texture="noise", texture_scale=5, texture_strength=0.40,
        shape="polygon", shape_count=3, shape_scale=0.20, edge_contrast=0.40)
    add("rose", palette=_palette((0.98, 0.80, 0.65), (0.96, 0.75, 0.55), (0.30, 0.50, 0.40)),
        texture="noise", texture_scale=5, texture_strength=0.40,
        shape="blob", shape_count=2, shape_scale=0.25, edge_contrast=0.38)
    add("tulip", palette=_palette((0.95, 0.75, 0.75), (0.13, 0.80, 0.80), (0.32, 0.55, 0.45)),
        texture="gradient", texture_scale=2, texture_strength=0.30,
        shape="ellipse", shape_count=4, shape_scale=0.16, edge_contrast=0.42)
    add("orchid", palette=_palette((0.80, 0.45, 0.80), (0.83, 0.55, 0.75), (0.30, 0.40, 0.45)),
        texture="noise", texture_scale=4, texture_strength=0.35,
        shape="polygon", shape_count=2, shape_scale=0.22, edge_contrast=0.40)
    add("fruit", palette=_palette((0.02, 0.75, 0.80), (0.12, 0.80, 0.85), (0.30, 0.60, 0.55)),
        texture="gradient", texture_scale=2, texture_strength=0.25,
        shape="ellipse", shape_count=4, shape_scale=0.18, edge_contrast=0.40)

    # --- sceneries: smooth gradients, few edges, characteristic hues ---
    add("sunset", palette=_palette((0.04, 0.80, 0.85), (0.08, 0.70, 0.75), (0.95, 0.60, 0.65)),
        texture="gradient", texture_scale=1, texture_strength=0.70,
        shape="ellipse", shape_count=1, shape_scale=0.12, edge_contrast=0.25)
    add("beach", palette=_palette((0.55, 0.55, 0.80), (0.12, 0.35, 0.85), (0.52, 0.45, 0.70)),
        texture="gradient", texture_scale=1, texture_strength=0.55,
        shape="none", shape_count=0, shape_scale=0.0, edge_contrast=0.15)
    add("mountain", palette=_palette((0.58, 0.30, 0.60), (0.60, 0.20, 0.75), (0.30, 0.25, 0.45)),
        texture="noise", texture_scale=3, texture_strength=0.45,
        shape="polygon", shape_count=2, shape_scale=0.35, edge_contrast=0.35)
    add("waterfall", palette=_palette((0.55, 0.25, 0.80), (0.52, 0.35, 0.65), (0.32, 0.45, 0.40)),
        texture="sinusoid", texture_scale=7, texture_strength=0.45,
        shape="stripes", shape_count=1, shape_scale=0.25, edge_contrast=0.30)
    add("desert", palette=_palette((0.10, 0.55, 0.80), (0.09, 0.50, 0.70), (0.56, 0.45, 0.80)),
        texture="gradient", texture_scale=1, texture_strength=0.50,
        shape="none", shape_count=0, shape_scale=0.0, edge_contrast=0.15)
    add("glacier", palette=_palette((0.55, 0.15, 0.90), (0.58, 0.10, 0.85), (0.60, 0.25, 0.75)),
        texture="noise", texture_scale=3, texture_strength=0.35,
        shape="polygon", shape_count=2, shape_scale=0.30, edge_contrast=0.30)
    add("lake", palette=_palette((0.55, 0.50, 0.60), (0.53, 0.45, 0.55), (0.33, 0.40, 0.45)),
        texture="gradient", texture_scale=1, texture_strength=0.45,
        shape="none", shape_count=0, shape_scale=0.0, edge_contrast=0.18)
    add("ocean", palette=_palette((0.57, 0.70, 0.55), (0.55, 0.65, 0.60), (0.58, 0.55, 0.70)),
        texture="sinusoid", texture_scale=5, texture_strength=0.40,
        shape="none", shape_count=0, shape_scale=0.0, edge_contrast=0.18)
    add("island", palette=_palette((0.50, 0.60, 0.65), (0.30, 0.55, 0.50), (0.55, 0.50, 0.75)),
        texture="noise", texture_scale=4, texture_strength=0.40,
        shape="blob", shape_count=1, shape_scale=0.30, edge_contrast=0.28)
    add("night_scene", palette=_palette((0.65, 0.55, 0.20), (0.62, 0.45, 0.30), (0.13, 0.60, 0.70)),
        texture="noise", texture_scale=6, texture_strength=0.40,
        shape="ellipse", shape_count=4, shape_scale=0.08, edge_contrast=0.50)
    add("firework", palette=_palette((0.0, 0.0, 0.08), (0.95, 0.85, 0.80), (0.15, 0.85, 0.85)),
        texture="noise", texture_scale=8, texture_strength=0.30,
        shape="polygon", shape_count=4, shape_scale=0.14, edge_contrast=0.65)

    # --- man-made: saturated palettes, geometric shapes, strong edges ---
    add("antique", palette=_palette((0.09, 0.45, 0.55), (0.07, 0.55, 0.45), (0.11, 0.35, 0.65)),
        texture="checker", texture_scale=6, texture_strength=0.30,
        shape="polygon", shape_count=2, shape_scale=0.26, edge_contrast=0.40)
    add("aviation", palette=_palette((0.56, 0.45, 0.80), (0.58, 0.35, 0.85), (0.0, 0.05, 0.80)),
        texture="gradient", texture_scale=1, texture_strength=0.35,
        shape="ellipse", shape_count=2, shape_scale=0.22, edge_contrast=0.50)
    add("balloon", palette=_palette((0.98, 0.75, 0.85), (0.15, 0.80, 0.85), (0.55, 0.60, 0.85)),
        texture="gradient", texture_scale=1, texture_strength=0.30,
        shape="ellipse", shape_count=3, shape_scale=0.22, edge_contrast=0.50)
    add("car", palette=_palette((0.0, 0.75, 0.70), (0.62, 0.65, 0.60), (0.0, 0.05, 0.70)),
        texture="checker", texture_scale=4, texture_strength=0.25,
        shape="polygon", shape_count=2, shape_scale=0.28, edge_contrast=0.50)
    add("architecture", palette=_palette((0.10, 0.20, 0.70), (0.08, 0.15, 0.60), (0.55, 0.30, 0.70)),
        texture="checker", texture_scale=8, texture_strength=0.45,
        shape="polygon", shape_count=3, shape_scale=0.30, edge_contrast=0.45)
    add("harbor", palette=_palette((0.56, 0.50, 0.60), (0.07, 0.40, 0.60), (0.0, 0.05, 0.75)),
        texture="sinusoid", texture_scale=6, texture_strength=0.35,
        shape="polygon", shape_count=3, shape_scale=0.22, edge_contrast=0.45)
    add("jewelry", palette=_palette((0.13, 0.55, 0.90), (0.0, 0.02, 0.95), (0.58, 0.40, 0.85)),
        texture="noise", texture_scale=6, texture_strength=0.30,
        shape="ellipse", shape_count=4, shape_scale=0.12, edge_contrast=0.55)
    add("model", palette=_palette((0.05, 0.35, 0.80), (0.95, 0.30, 0.75), (0.08, 0.25, 0.70)),
        texture="gradient", texture_scale=1, texture_strength=0.30,
        shape="blob", shape_count=1, shape_scale=0.32, edge_contrast=0.35)
    add("pyramid", palette=_palette((0.11, 0.55, 0.75), (0.10, 0.50, 0.65), (0.56, 0.40, 0.80)),
        texture="noise", texture_scale=3, texture_strength=0.35,
        shape="polygon", shape_count=1, shape_scale=0.38, edge_contrast=0.45)
    add("sailboat", palette=_palette((0.56, 0.60, 0.70), (0.0, 0.03, 0.90), (0.58, 0.50, 0.60)),
        texture="gradient", texture_scale=1, texture_strength=0.40,
        shape="polygon", shape_count=2, shape_scale=0.24, edge_contrast=0.50)
    add("ski", palette=_palette((0.58, 0.10, 0.92), (0.55, 0.15, 0.85), (0.60, 0.45, 0.70)),
        texture="noise", texture_scale=3, texture_strength=0.30,
        shape="polygon", shape_count=2, shape_scale=0.20, edge_contrast=0.40)
    add("stamp", palette=_palette((0.13, 0.50, 0.80), (0.90, 0.55, 0.75), (0.45, 0.50, 0.70)),
        texture="checker", texture_scale=10, texture_strength=0.40,
        shape="polygon", shape_count=1, shape_scale=0.36, edge_contrast=0.45)
    add("steam_train", palette=_palette((0.0, 0.05, 0.30), (0.05, 0.40, 0.40), (0.08, 0.20, 0.55)),
        texture="noise", texture_scale=5, texture_strength=0.45,
        shape="polygon", shape_count=2, shape_scale=0.28, edge_contrast=0.40)
    add("surfing", palette=_palette((0.55, 0.70, 0.65), (0.53, 0.60, 0.75), (0.0, 0.04, 0.90)),
        texture="sinusoid", texture_scale=6, texture_strength=0.45,
        shape="ellipse", shape_count=1, shape_scale=0.16, edge_contrast=0.40)
    add("texture_pattern", palette=_palette((0.45, 0.50, 0.60), (0.75, 0.45, 0.55), (0.20, 0.55, 0.65)),
        texture="checker", texture_scale=12, texture_strength=0.80,
        shape="stripes", shape_count=1, shape_scale=0.25, edge_contrast=0.50)
    add("windmill", palette=_palette((0.56, 0.40, 0.80), (0.30, 0.45, 0.55), (0.0, 0.04, 0.85)),
        texture="gradient", texture_scale=1, texture_strength=0.35,
        shape="polygon", shape_count=3, shape_scale=0.22, edge_contrast=0.50)

    return specs


_SPEC_LIBRARY = _build_specs()


def corel_category_specs(num_categories: int = 20) -> List[CategorySpec]:
    """Return the first *num_categories* category recipes.

    The first 20 names form the 20-Category dataset and the full 50 form the
    50-Category dataset, mirroring the two COREL subsets in the paper.
    """
    if not 1 <= num_categories <= len(COREL_CATEGORY_NAMES):
        raise ValidationError(
            f"num_categories must be in [1, {len(COREL_CATEGORY_NAMES)}], got {num_categories}"
        )
    return [_SPEC_LIBRARY[name] for name in COREL_CATEGORY_NAMES[:num_categories]]

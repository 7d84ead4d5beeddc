"""Synthetic segmentation data: colored rectangles and ellipses on a
background, one class per shape, later shapes occluding earlier ones.

Stands in for a real dataset so training and evaluation stay desk-scale
and fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import RandomSource

# fixed 12-entry color palette, also used for mask image output
PALETTE = np.array([
    [0.10, 0.10, 0.10],   # 0 background
    [0.90, 0.15, 0.15],   # 1 red
    [0.15, 0.75, 0.20],   # 2 green
    [0.20, 0.35, 0.95],   # 3 blue
    [0.95, 0.85, 0.15],   # 4 yellow
    [0.80, 0.20, 0.85],   # 5 magenta
    [0.15, 0.85, 0.85],   # 6 cyan
    [0.95, 0.55, 0.10],   # 7 orange
    [0.55, 0.30, 0.10],   # 8 brown
    [0.60, 0.85, 0.35],   # 9 lime
    [0.50, 0.50, 0.95],   # 10 periwinkle
    [0.90, 0.60, 0.75],   # 11 pink
])

NOISE_STD = 0.05


@dataclass
class SyntheticSample:
    image: np.ndarray  # (3, H, W) float in [0, 1]
    mask: np.ndarray   # (H, W) int labels in 0..K-1


def _draw_shape(mask: np.ndarray, label: int, rng: RandomSource):
    H, W = mask.shape
    cy = int(rng.integers(0, H))
    cx = int(rng.integers(0, W))
    ry = int(rng.integers(max(2, H // 4), max(3, H // 2)))
    rx = int(rng.integers(max(2, W // 4), max(3, W // 2)))
    yy, xx = np.ogrid[:H, :W]
    if rng.integers(0, 2) == 0:
        inside = (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
    else:
        inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    mask[inside] = label


def _draw_mask(H: int, W: int, K: int, rng: RandomSource) -> np.ndarray:
    """Place K-1 occluding shapes, redrawing until every class keeps a
    visible region (at least 16 pixels); 100 failed draws are an error."""
    for _ in range(100):
        mask = np.zeros((H, W), dtype=np.int64)
        for label in range(1, K):
            _draw_shape(mask, label, rng)
        counts = np.bincount(mask.ravel(), minlength=K)
        if (counts >= 16).all():
            return mask
    raise ConfigError(
        f"{K} classes do not all stay visible on {H}x{W} masks: "
        "100 draws left a class under 16 pixels")


def gen_synthetic_dataset(n: int, H: int, W: int, K: int,
                          seed: int) -> list[SyntheticSample]:
    if K < 2:
        raise ConfigError("need at least 2 classes")
    if K > len(PALETTE):
        raise ConfigError(
            f"at most {len(PALETTE)} distinguishable classes, got {K}")
    if H % 64 or W % 64:
        raise ConfigError(f"sample size {H}x{W} must be divisible by 64")
    master = RandomSource(seed)
    samples = []
    for i in range(n):
        rng = master.spawn(i)
        mask = _draw_mask(H, W, K, rng)
        image = PALETTE[mask].transpose(2, 0, 1)
        image = image + rng.normal(image.shape, std=NOISE_STD)
        image = np.clip(image, 0.0, 1.0)
        samples.append(SyntheticSample(image, mask))
    return samples

"""Four-stage convolutional encoder producing a strided feature pyramid.

Stage i emits a map of size H/2^(i+2) x W/2^(i+2) with the configured
channel count: a downsampling 3x3 conv (stride 4 for the first, patchify
stage, stride 2 afterwards) followed by one stride-1 3x3 conv, both
conv+BN+ReLU.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EncoderConfig
from .errors import DataError
from .layers import ConvBN
from .module import Module
from .rng import RandomSource
from .tensor import Tensor


@dataclass
class FeaturePyramid:
    features: tuple  # (F_1, F_2, F_3, F_4)
    source_size: tuple  # (H, W)

    def __iter__(self):
        return iter(self.features)

    def __getitem__(self, i):
        return self.features[i]


class Encoder(Module):
    def __init__(self, cfg: EncoderConfig, rng: RandomSource):
        cfg.validate()
        stages = []
        c_prev = 3
        for i, c in enumerate(cfg.channels):
            stride = 4 if i == 0 else 2
            stages.append([
                ConvBN(c_prev, c, rng.spawn(10 * i), k=3, stride=stride,
                       relu=True),
                ConvBN(c, c, rng.spawn(10 * i + 1), k=3, relu=True)])
            c_prev = c
        self.stages = stages

    def __call__(self, image: Tensor) -> FeaturePyramid:
        if image.ndim != 4 or image.shape[1] != 3 or image.size == 0:
            raise DataError(f"expected a (B, 3, H, W) image with B, H, W > 0, "
                            f"got {image.shape}")
        _, _, H, W = image.shape
        if H % 64 or W % 64:
            raise DataError(f"image size {H}x{W} must be divisible by 64")
        feats = []
        x = image
        for blocks in self.stages:
            for block in blocks:
                x = block(x)
            feats.append(x)
        return FeaturePyramid(tuple(feats), (H, W))

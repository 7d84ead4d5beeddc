"""Segmentation decoder: fixed-size resizing, successive cross-attention
aggregation, semantic re-combination, and the classification head.

Wiring of the successive variant, per block: the level-2 output attends
queries from R_2 over keys/values from R_1; the level-3 output attends R_3
queries over the level-2 output just produced; level 4 likewise over level
3. Later blocks take their queries from the previous block's output at the
same level, while the key/value chain restarts at R_1. The aggregated
semantics are the last block's outputs at levels 2..4.
"""

from __future__ import annotations

import itertools

from . import tensor
from .config import DecoderConfig, EncoderConfig
from .encoder import Encoder, FeaturePyramid
from .errors import ConfigError, ShapeError
from .layers import ConvBN, Conv2d, LayerNorm, MixFFN, MultiHeadAttention
from .module import Module
from .rng import RandomSource
from .tensor import Tensor, bilinear_resize, concat


def resize_pyramid(p: FeaturePyramid) -> tuple:
    """R_1..R_4 as (B, H/64, W/64, C_i) tokens."""
    H, W = p.source_size
    if H % 64 or W % 64:
        raise ConfigError(f"source size {H}x{W} must be divisible by 64")
    return tuple(bilinear_resize(f, (H // 64, W // 64)).permute(0, 2, 3, 1)
                 for f in p.features)


class ScaStage(Module):
    """One pre-norm attention + FFN stage with residuals.

    A = MHA(LN(kv), LN(q)) + q;  S = FFN(LN(A)) + A.
    """

    def __init__(self, kv_dim: int, q_dim: int, rng: RandomSource,
                 heads: int = 1):
        self.ln_kv = LayerNorm(kv_dim)
        self.ln_q = LayerNorm(q_dim)
        self.attn = MultiHeadAttention(kv_dim, q_dim, rng.spawn(1), heads=heads)
        self.ln_ffn = LayerNorm(q_dim)
        self.ffn = MixFFN(q_dim, rng.spawn(2))

    def __call__(self, kv: Tensor, q: Tensor):
        if kv.shape[:-1] != q.shape[:-1]:
            raise ShapeError(
                f"token grids disagree: kv {kv.shape} vs q {q.shape}")
        a = self.attn(self.ln_kv(kv), self.ln_q(q)) + q
        return self.ffn(self.ln_ffn(a)) + a


class AggregatedSemanticsExtractor(Module):
    """L transformer blocks of three cross-attention stages each.

    ``successive`` chains keys/values through the block; ``plain-cross``
    keeps kv fixed at R_j for every block. Both share the same parameter
    shapes.
    """

    def __init__(self, channels, cfg: DecoderConfig, rng: RandomSource):
        self.variant = cfg.attention_variant
        self.blocks = [
            [ScaStage(channels[t], channels[t + 1], rng.spawn(100 * l + t),
                      heads=cfg.heads[t])
             for t in range(3)]
            for l in range(cfg.num_blocks)
        ]

    def __call__(self, r):
        prev = None
        for block in self.blocks:
            current = []
            for t, stage in enumerate(block):
                q = r[t + 1] if prev is None else prev[t]
                if self.variant == "successive":
                    kv = r[0] if t == 0 else current[t - 1]
                else:
                    kv = r[t]
                current.append(stage(kv, q))
            prev = current
        return tuple(prev)


class SelfOnConcatExtractor(Module):
    """Ablation variant: self-attention over channel-concatenated features."""

    def __init__(self, channels, cfg: DecoderConfig, rng: RandomSource):
        self.channels = tuple(channels)
        total = sum(channels)
        self.blocks = [
            ScaStage(total, total, rng.spawn(100 * l), heads=cfg.heads[0])
            for l in range(cfg.num_blocks)
        ]

    def __call__(self, r):
        x = concat(r, axis=-1)
        for block in self.blocks:
            x = block(x, x)
        # split channels back into levels 2..4; level 1's slice is dropped
        ends = tuple(itertools.accumulate(self.channels))
        return tuple(x[..., a:b] for a, b in zip(ends, ends[1:]))


class SemanticCombiner(Module):
    """Re-weight one pyramid level by its upsampled semantics.

    Both paths go through conv1x1+BN; ``eq6`` adds the projected feature
    back, ``eq7`` keeps only the product, ``eq8`` adds the semantics.
    """

    def __init__(self, channels: int, variant: str, rng: RandomSource):
        self.variant = variant
        self.proj_f = ConvBN(channels, channels, rng.spawn(1))
        self.proj_s = ConvBN(channels, channels, rng.spawn(2))

    def __call__(self, feature: Tensor, semantics: Tensor) -> Tensor:
        up = bilinear_resize(semantics.permute(0, 3, 1, 2), feature.shape[2:])
        if up.shape != feature.shape:
            raise ShapeError(
                f"upsampled semantics {up.shape} do not match {feature.shape}")
        f = self.proj_f(feature)
        s = self.proj_s(up)
        prod = f * s
        if self.variant == "eq6":
            return prod + f
        if self.variant == "eq7":
            return prod
        return prod + s


class SegmentationHead(Module):
    """Project, fuse, and classify the enhanced features plus F_1. The fuse
    convolves the concat of the four projections resized to F_1's size, as
    one node that applies each projection's weight block at its own size,
    then resizes and sums, and never builds the concat."""

    def __init__(self, channels, head_channels: int, num_classes: int,
                 rng: RandomSource):
        self.projs = [ConvBN(c, head_channels, rng.spawn(i), relu=True)
                      for i, c in enumerate(channels)]
        self.fuse = ConvBN(4 * head_channels, head_channels, rng.spawn(10),
                           relu=True)
        # small classifier init keeps initial logits near uniform
        self.classifier = Conv2d(head_channels, num_classes, 1, rng.spawn(11),
                                 init_std=0.01)

    def __call__(self, f1: Tensor, enhanced, out_size) -> Tensor:
        parts = [proj(x) for proj, x in zip(self.projs, (f1, *enhanced))]
        logits = self.classifier(self.fuse(parts))
        return bilinear_resize(logits, out_size)


class Decoder(Module):
    def __init__(self, enc_channels, cfg: DecoderConfig, rng: RandomSource):
        cfg.validate()
        self.cfg = cfg
        if cfg.attention_variant == "self-on-concat":
            self.ase = SelfOnConcatExtractor(enc_channels, cfg, rng.spawn(1))
        else:
            self.ase = AggregatedSemanticsExtractor(enc_channels, cfg, rng.spawn(1))
        self.scm = [SemanticCombiner(enc_channels[j], cfg.scm_variant,
                                     rng.spawn(2 + j))
                    for j in (1, 2, 3)]
        self.head = SegmentationHead(enc_channels, cfg.head_channels,
                                     cfg.num_classes, rng.spawn(9))

    def __call__(self, p: FeaturePyramid) -> Tensor:
        semantics = self.ase(resize_pyramid(p))
        enhanced = [combiner(p[j + 1], semantics[j])
                    for j, combiner in enumerate(self.scm)]
        return self.head(p[0], enhanced, p.source_size)


class SegModel(Module):
    """Encoder stub plus decoder, end to end."""

    def __init__(self, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig,
                 seed: int = 0):
        rng = RandomSource(seed)
        self.encoder = Encoder(enc_cfg, rng.spawn(1))
        self.decoder = Decoder(enc_cfg.channels, dec_cfg, rng.spawn(2))
        self.pack_parameters()

    def __call__(self, image: Tensor) -> Tensor:
        """Logits for ``image``; in eval mode no autodiff graph is recorded."""
        prev = tensor._record[0]
        tensor._record[0] = prev and self.training
        try:
            return self.decoder(self.encoder(image))
        finally:
            tensor._record[0] = prev

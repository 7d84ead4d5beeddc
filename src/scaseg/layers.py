"""Differentiable layers: attention, norms, convolutions, FFN.

Conventions: image tensors are (B, C, H, W); token tensors are the
channels-last maps (B, h, w, C), so the token grid is their shape. LayerNorm
epsilon is 1e-6, BatchNorm epsilon 1e-5 with momentum 0.1. The norms
(through the shared ``tensor.normalize``), ConvBN with its ReLU
(``tensor.conv_norm``), Linear, the attention core and the depthwise conv are
one graph node each, and tokens stay (B, h, w, C) through the mix-FFN.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError
from .module import Module
from .rng import RandomSource
from .tensor import (Tensor, attention, conv2d, conv_norm, depthwise_tokens,
                     linear, normalize)

LN_EPS = 1e-6
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class Linear(Module):
    """Affine map on the last axis; truncated-normal init, std 0.02."""

    def __init__(self, d_in: int, d_out: int, rng: RandomSource):
        self.weight = Tensor(rng.truncated_normal((d_in, d_out), std=0.02),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.gamma.size:
            raise ShapeError(
                f"LayerNorm over {self.gamma.size} channels got {x.shape}")
        return normalize(x, self.gamma, self.beta, (-1,), -1, LN_EPS)[0]


class BatchNorm2d(Module):
    """Single-device batch norm over (B, H, W) per channel. ``ConvBN``
    shares its statistics through ``normalized``."""

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = Tensor(np.zeros(channels))
        self.running_var = Tensor(np.ones(channels))

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.gamma.size:
            raise ShapeError(
                f"BatchNorm2d({self.gamma.size}) got input shape {x.shape}")
        return self.normalized(lambda stats: normalize(
            x, self.gamma, self.beta, (0, 2, 3), 1, BN_EPS, stats))

    def normalized(self, build) -> Tensor:
        """The output of ``build(stats) -> (out, mean, var)``. Eval mode
        passes the running (mean, var) shaped (1, C, 1, 1), which makes the
        norm one fixed per-channel affine map (``tensor._affine_norm``) with
        no backward. Training mode passes None, so the batch's own
        statistics are used, and folds them into the running ones, which
        track the unbiased variance."""
        if not self.training:
            return build((self.running_mean.data.reshape(1, -1, 1, 1),
                          self.running_var.data.reshape(1, -1, 1, 1)))[0]
        out, mu, var = build(None)
        B, C, H, W = out.shape
        n, m = B * H * W, BN_MOMENTUM
        if n <= 1:
            raise NumericalError(
                "batch norm in training mode needs more than one value "
                f"per channel (got batch {B}, spatial {H}x{W})")
        rm, rv = self.running_mean.data, self.running_var.data
        rm *= 1 - m
        rm += m * mu.reshape(C)
        rv *= 1 - m
        rv += m * var.reshape(C) * n / (n - 1)
        return out


class Conv2d(Module):
    """Stride-1 conv layer with Kaiming fan-out init, padded by ``k // 2``."""

    def __init__(self, c_in: int, c_out: int, k: int, rng: RandomSource,
                 init_std: float | None = None, bias: bool = True):
        if init_std is None:
            init_std = np.sqrt(2.0 / (c_out * k * k))
        self.weight = Tensor(rng.normal((c_out, c_in, k, k), std=init_std),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias)


class ConvBN(Module):
    """1x1 (or kxk) bias-free convolution followed by batch normalization
    and an optional ReLU, as one ``conv_norm`` node. A 1x1 ConvBN also takes
    a list of maps and convolves their concat resized to the first one's
    size, projecting each map at its own size first."""

    def __init__(self, c_in: int, c_out: int, rng: RandomSource, k: int = 1,
                 stride: int = 1, relu: bool = False):
        self.stride = stride
        self.conv = Conv2d(c_in, c_out, k, rng, bias=False)
        self.bn = BatchNorm2d(c_out)
        self.relu = relu

    def __call__(self, x: Tensor) -> Tensor:
        conv, bn = self.conv, self.bn
        return bn.normalized(lambda stats: conv_norm(
            x, conv.weight, bn.gamma, bn.beta, self.stride, BN_EPS, stats,
            self.relu))


class MultiHeadAttention(Module):
    """Scaled dot-product attention over token tensors.

    The first forward argument supplies keys and values, the second the
    queries. All four projections are ``q_dim`` wide with a bias, so the
    output has the query channel count and the caller's residual connection
    type-checks.
    """

    def __init__(self, kv_dim: int, q_dim: int, rng: RandomSource,
                 heads: int = 1):
        if q_dim % heads != 0:
            raise ConfigError(f"query dim {q_dim} not divisible by {heads} heads")
        self.heads = heads
        self.w_q = Linear(q_dim, q_dim, rng.spawn(1))
        self.w_k = Linear(kv_dim, q_dim, rng.spawn(2))
        self.w_v = Linear(kv_dim, q_dim, rng.spawn(3))
        self.w_o = Linear(q_dim, q_dim, rng.spawn(4))
        self.last_attention = None  # latest weights, (B, heads, n_q, n_kv)

    def __call__(self, kv_src: Tensor, q_src: Tensor) -> Tensor:
        out, self.last_attention = attention(
            self.w_q(q_src), self.w_k(kv_src), self.w_v(kv_src), self.heads)
        return self.w_o(out)


class MixFFN(Module):
    """Channel MLP with a depthwise 3x3 conv between the two 1x1 convs."""

    EXPANSION = 4

    def __init__(self, channels: int, rng: RandomSource):
        hidden = self.EXPANSION * channels
        self.fc1 = Conv2d(channels, hidden, 1, rng.spawn(1))
        # depthwise weights (hidden, 1, 3, 3), drawn at the per-channel fan-out 9
        self.dw = Conv2d(1, hidden, 3, rng.spawn(2), init_std=np.sqrt(2.0 / 9))
        self.fc2 = Conv2d(hidden, channels, 1, rng.spawn(3))

    def __call__(self, x: Tensor) -> Tensor:
        hidden = linear(x, self.fc1.weight, self.fc1.bias)
        hidden = depthwise_tokens(hidden, self.dw.weight, self.dw.bias)
        return linear(hidden.gelu(), self.fc2.weight, self.fc2.bias)


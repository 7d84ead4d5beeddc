"""Dense N-d tensor with reverse-mode automatic differentiation.

The graph is recorded eagerly: every primitive that touches a tensor with
``requires_grad`` produces a node holding a backward closure and references
to its parents, except inside a ``recording(False)`` block, which records
no graph: an eval-mode ``SegModel`` forward and ``gradient_check``'s probe
forwards run in one. ``Tensor.backward()`` topologically sorts the
graph and accumulates gradients additively over fan-out, so calling it
twice without ``Module.zero_grad`` doubles every leaf gradient.

All primitives are implemented on top of numpy; double precision is the
default dtype and is what the finite-difference checks assume. The conv and
normalization math lives in array kernels that return ``(out, backward)``;
``conv2d`` and ``normalize`` wrap one kernel each into a node, and the fused
``conv_norm`` node chains both, normalizing the conv output in place. Given
running statistics (eval mode), both apply batch norm as a fixed per-channel
affine map instead, whose backward raises ``UsageError``. The conv kernel
has no bias: ``conv2d`` adds one, and ``conv_norm``'s batch mean would
cancel one. A k×k conv node keeps its input alone, never a padded copy
or im2col columns. A 1×1 ``conv_norm`` also takes a list of parts at
different sizes: each part is projected by its column block of the weight at
its own size, and the projections are resized and summed at the first part's
size, which equals the conv of their resized concat without building it. The
bilinear interpolation matrices are cached per (source, target) size pair
and are read-only. GELU's Φ is summed from a Taylor table, ``_PHI_TABLE``.
Tokens are channels-last ``(B, h, w, C)`` maps, so their shape is the grid.
"""

from __future__ import annotations

import contextlib
import functools
import math
from itertools import accumulate

import numpy as np

from .errors import ShapeError, UsageError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# dtype instances, so the membership test converts no scalar type per call;
# a float array in non-native byte order is not a member and is converted
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_record = True  # written only by recording()
# least output pixels for shifted GEMMs; 3×3, C_in = C_out, fwd + bwd, im2col
# → shifted ms: (4,64,8,8) 2.42 → 2.38, (1,64,8,8) .58 → .69, (4,32,12,12)
# 1.74 → 1.48, (4,8,16,16) .40 → .38, (4,32,16,16) 3.09 → 2.39
_SHIFTED_MIN_PIXELS = 144


@contextlib.contextmanager
def recording(on: bool):
    """Inside the block, record nodes only if ``on`` and recording was on."""
    global _record
    prev, _record = _record, _record and on
    try:
        yield
    finally:
        _record = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus optional gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data, parents, backward):
        out = Tensor(data)
        if _record and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff engine ------------------------------------------------------

    def backward(self):
        """Run reverse-mode accumulation from this scalar tensor. Leaf
        gradients accumulate across repeated calls.
        """
        if self._backward is None and not self._parents:
            raise UsageError("backward() called on a tensor with no recorded "
                             "graph; an eval-mode SegModel forward records none")
        if self.size != 1:
            raise UsageError(f"backward() needs a scalar, got shape {self.shape}")
        grad = np.ones_like(self.data)

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                # leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
                continue
            for p, pg in zip(node._parents, node._backward(g)):
                if pg is None or not p.requires_grad:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg

    # -- arithmetic primitives ------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, self.dtype)
        out_data = self.data + other.data
        a, b = self, other

        def backward(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

        return Tensor._from_op(out_data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._from_op(-self.data, (a,), lambda g: (-g,))

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)
        a, b = self, other

        def backward(g):
            return (_unbroadcast(g * b.data, a.shape),
                    _unbroadcast(g * a.data, b.shape))

        return Tensor._from_op(self.data * other.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other, self.dtype)
        a, b = self, other

        def backward(g):
            return (_unbroadcast(g / b.data, a.shape),
                    _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._from_op(self.data / other.data, (a, b), backward)

    def __pow__(self, exponent: float):
        a = self
        e = float(exponent)

        def backward(g):
            return (g * e * a.data ** (e - 1.0),)

        return Tensor._from_op(self.data ** e, (a,), backward)

    def __getitem__(self, idx):
        a = self
        out_data = self.data[idx]

        def backward(g):
            ga = np.zeros_like(a.data)
            np.add.at(ga, idx, g)
            return (ga,)

        return Tensor._from_op(out_data, (a,), backward)

    # -- shape primitives -----------------------------------------------------

    def reshape(self, *shape):
        a = self
        old = self.shape
        return Tensor._from_op(self.data.reshape(shape), (a,),
                               lambda g: (g.reshape(old),))

    def permute(self, *axes):
        a = self
        inv = sorted(range(len(axes)), key=axes.__getitem__)
        return Tensor._from_op(self.data.transpose(axes), (a,),
                               lambda g: (g.transpose(inv),))

    # -- reductions -----------------------------------------------------------

    def sum(self):
        a = self
        return Tensor._from_op(self.data.sum(), (a,),
                               lambda g: (np.broadcast_to(g, a.shape).copy(),))

    # -- elementwise nonlinearities --------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(self.data)
        return Tensor._from_op(out_data, (a,), lambda g: (g * out_data,))

    def log(self):
        a = self
        return Tensor._from_op(np.log(self.data), (a,), lambda g: (g / a.data,))

    def sqrt(self):
        a = self
        out_data = np.sqrt(self.data)
        return Tensor._from_op(out_data, (a,), lambda g: (g * 0.5 / out_data,))

    def relu(self):
        a = self
        mask = self.data > 0
        return Tensor._from_op(self.data * mask, (a,), lambda g: (g * mask,))

    def sigmoid(self):
        a = self
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._from_op(out_data, (a,),
                               lambda g: (g * out_data * (1.0 - out_data),))

    def gelu(self):
        # x·Φ(x); derivative Φ + x·φ; float32 in, float32 out and gradient
        a = self
        x = self.data
        cdf = _cdf(x)

        def backward(g):
            pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
            return (g * (cdf + x * pdf),)

        return Tensor._from_op(x * cdf, (a,), backward)


def _phi_table() -> np.ndarray:
    """(6, 4353): Φ(x₀), then Φ⁽ᵏ⁾(x₀)/k!·256⁻ᵏ for k = 1..5, at x₀ = −8.5 +
    j/256; column 0, read only for x ≤ −8.5, is zero, as erf rounds Φ there."""
    x0 = np.arange(-2176, 2177) / 256.0
    he = [x0 * 0.0, np.exp(-0.5 * x0 * x0) * _INV_SQRT_2PI]  # Heₙ·φ, n = −1, 0
    rows = [[0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x0]]
    for n in range(5):  # Φ⁽ⁿ⁺¹⁾ = (−1)ⁿ·Heₙ·φ; He₍ₙ₊₁₎ = x·Heₙ − n·He₍ₙ₋₁₎
        rows.append(he[-1] * (-1 / 256) ** n / (256 * math.factorial(n + 1)))
        he.append(x0 * he[-1] - n * he[-2])
    return np.array(rows) * (x0 > -8.5)


_PHI_TABLE = _phi_table()


def _cdf(x: np.ndarray) -> np.ndarray:
    """Φ(x) in ``x``'s dtype: the clamped ``256·x`` splits by truncation into
    a table column and an exact offset u ∈ (−1, 1) for its polynomial."""
    s = np.fmin(x, 8.5)  # fmin/fmax take NaN into the grid; x·Φ stays NaN
    np.fmax(s, -8.5, out=s)
    s *= 256.0
    j = s.astype(np.intp)
    s -= j
    j += 2176
    c = _PHI_TABLE.take(j, axis=1)
    p = c[5]
    for k in (4, 3, 2, 1):
        p *= s
        p += c[k]
    cdf = np.multiply(p, s, dtype=x.dtype)  # a new array: the node keeps no c
    return np.add(cdf, c[0], out=cdf)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


# -- free-function primitives ---------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading dimensions broadcast as in numpy."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2+ dims, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return Tensor._from_op(out_data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ W + b`` over the last axis of ``(B, h, w, C)`` tokens as one node.
    ``w`` is ``(C, d_out)`` or a 1×1 conv weight ``(d_out, C, 1, 1)``, read
    through its transposed 2-D view; its gradient keeps ``w``'s shape."""
    wm = w.data if w.ndim == 2 else w.data.reshape(w.shape[0], -1).T
    d_in, d_out = wm.shape
    if x.ndim < 2 or x.shape[-1] != d_in:
        raise ShapeError(f"linear expects last dim {d_in}, got {x.shape}")
    # one GEMM per image, since BLAS picks its kernel by row count
    xv = x.data.reshape(x.shape[0], -1, d_in)
    out = np.matmul(xv, wm)
    out += b.data

    def backward(g):
        gx = np.matmul(g.reshape(out.shape), wm.T).reshape(x.shape)
        g2, x2 = g.reshape(-1, d_out), xv.reshape(-1, d_in)
        gw = x2.T @ g2 if w.ndim == 2 else (g2.T @ x2).reshape(w.shape)
        return gx, gw, np.add.reduce(g2, 0)

    return Tensor._from_op(out.reshape(*x.shape[:-1], d_out), (x, w, b), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int):
    """Multi-head ``softmax(QKᵀ/√d_k)·V``, head split and merge included, as
    one node on ``(B, h, w, d)`` tokens; every axis between the batch and the
    channel axis is a token axis. Returns the output, shaped as ``q``, and
    ``P``, ``(B, heads, n_q, n_kv)``. The backward reads ``P`` and never
    writes it; its softmax part is ``dS = P ∘ (dP − rowsum(dP ∘ P))``."""
    if (min(q.ndim, k.ndim) < 3 or k.shape != v.shape or q.shape[-1] % heads
            or k.shape[0] != q.shape[0] or k.shape[-1] != q.shape[-1]):
        raise ShapeError(f"attention with {heads} heads got q {q.shape}, "
                         f"k {k.shape}, v {v.shape}")
    dk = q.shape[-1] // heads

    def split(t):  # (B, ..., d) -> (B, heads, n, dk)
        return t.reshape(len(t), -1, heads, dk).transpose(0, 2, 1, 3)

    def merge(t, shape):  # (B, heads, n, dk) -> shape
        return t.transpose(0, 2, 1, 3).reshape(shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / np.sqrt(dk)
    p = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale
    p -= np.maximum.reduce(p, -1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, -1, keepdims=True)

    def backward(g):
        gh = split(g)
        dp = np.matmul(gh, vh.transpose(0, 1, 3, 2))
        ds = (dp - np.add.reduce(dp * p, -1, keepdims=True)) * p * scale
        return (merge(np.matmul(ds, kh), q.shape),
                merge(np.matmul(ds.transpose(0, 1, 3, 2), qh), k.shape),
                merge(np.matmul(p.transpose(0, 1, 3, 2), gh), k.shape))

    return Tensor._from_op(merge(np.matmul(p, vh), q.shape), (q, k, v),
                           backward), p


def depthwise_tokens(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Depthwise k×k conv (stride 1, zero padding k // 2, ``w`` of shape
    ``(C, 1, k, k)``) on ``(B, h, w, C)`` tokens, as one node: a shifted
    multiply-add per tap over a zero-padded channels-last buffer, skipping
    taps that see only padding. The backward runs the same shifts."""
    C, k = w.shape[0], w.shape[-1]
    if x.ndim != 4 or x.shape[-1] != C or w.shape != (C, 1, k, k):
        raise ShapeError(f"depthwise weight {w.shape} on tokens {x.shape}")
    B, h, wd = x.shape[:3]
    p = k // 2
    xp = np.zeros((B, h + 2 * p, wd + 2 * p, C), x.dtype)
    xp[:, p:p + h, p:p + wd] = x.data
    taps = w.data[:, 0].transpose(1, 2, 0)  # (k, k, C)
    live = [(i, j) for i in range(k) for j in range(k)
            if abs(i - p) < h and abs(j - p) < wd]
    out = np.zeros(x.shape, x.dtype)
    for i, j in live:
        out += xp[:, i:i + h, j:j + wd] * taps[i, j]
    out += b.data

    def backward(g):
        gxp = np.zeros(xp.shape, xp.dtype)
        gtaps = np.zeros(taps.shape, taps.dtype)
        for i, j in live:
            gxp[:, i:i + h, j:j + wd] += g * taps[i, j]
            gtaps[i, j] = np.add.reduce(
                (g * xp[:, i:i + h, j:j + wd]).reshape(-1, C), 0)
        return (gxp[:, p:p + h, p:p + wd],
                gtaps.transpose(2, 0, 1).reshape(w.shape),
                np.add.reduce(g.reshape(-1, C), 0))

    return Tensor._from_op(out, (x, w, b), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``."""
    _check_axis(x, axis)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return Tensor._from_op(y, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """``x - log(sum(exp(x)))`` along ``axis``, shifted by the max first."""
    _check_axis(x, axis)
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    out_data -= np.log(np.exp(out_data).sum(axis=axis, keepdims=True))
    sm = np.exp(out_data)

    def backward(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return Tensor._from_op(out_data, (x,), backward)


def _check_axis(x: Tensor, axis: int):
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} invalid for shape {x.shape}")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    ends = list(accumulate(t.shape[axis] for t in tensors))
    lead = (slice(None),) * (axis % out_data.ndim)

    def backward(g):
        return tuple(g[(*lead, slice(e - t.shape[axis], e))]
                     for t, e in zip(tensors, ends))

    return Tensor._from_op(out_data, tuple(tensors), backward)


def _normalize(x, gamma, beta, axes, channel_axis, eps, inplace):
    """Array kernel of ``normalize`` without ``stats``: returns ``(out,
    backward, mean, var)`` with ``backward(gout, writable=False) -> (gx,
    ggamma, gbeta)``. With ``inplace`` the caller's ``x`` is overwritten by
    ``x̂``, which the backward keeps. Train-mode batch norm's ``gx =
    k·(gout − gβ/n) − x̂·(k·gγ/n)``, ``k = γ·inv``, goes into ``gout`` if
    ``writable``."""
    pshape = [1] * x.ndim
    pshape[channel_axis] = gamma.size
    g = gamma.reshape(pshape)
    out = np.empty_like(x)  # d·d, then the output
    n = math.prod([x.shape[a] for a in axes])
    mean = np.add.reduce(x, axes, keepdims=True) * (1.0 / n)
    d = np.add(x, -mean, out=x if inplace else None)
    var = np.add.reduce(np.multiply(d, d, out=out), axes, keepdims=True) * (1.0 / n)
    inv = (var + eps) ** -0.5
    xhat = np.multiply(d, inv, out=d)
    out = np.multiply(xhat, g, out=out)
    out += beta.reshape(pshape)

    def backward(gout, writable=False):
        param_axes = tuple(i for i in range(gout.ndim) if pshape[i] == 1)
        scratch = gout * xhat
        ggamma = np.add.reduce(scratch, param_axes, keepdims=True)
        gbeta = np.add.reduce(gout, param_axes, keepdims=True)
        if sorted(a % gout.ndim for a in axes) == list(param_axes):
            k = g * inv
            gx = np.subtract(gout, gbeta / n, out=gout if writable else None)
            gx *= k
            gx -= np.multiply(xhat, k * ggamma / n, out=scratch)
        else:
            gx = gout * g
            # the mean form; sum / n is exactly what ndarray.mean computes
            m2 = np.add.reduce(gx * xhat, axes, keepdims=True) / n
            gx -= np.add.reduce(gx, axes, keepdims=True) / n
            gx -= np.multiply(xhat, m2, out=scratch)
            gx *= inv
        return gx, ggamma.reshape(gamma.shape), gbeta.reshape(beta.shape)

    return out, backward, mean, var


def _affine_norm(x, gamma, beta, stats, eps, out=None):
    """Eval-mode batch norm of (B, C, H, W) ``x`` given ``stats = (μ, σ²)``:
    ``x·a + (β − μ·a)``, ``a = γ/√(σ² + ε)``, into ``out``, which may be x."""
    mean, var = stats
    a = gamma.reshape(1, -1, 1, 1) / np.sqrt(var + eps)
    out = np.multiply(x, a, out=out)
    out += beta.reshape(1, -1, 1, 1) - mean * a
    return out


def _eval_norm_backward(g):
    raise UsageError("eval-mode batch norm has no gradient; call train() first")


def normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes: tuple,
              channel_axis: int, eps: float, stats=None):
    """``gamma * (x - mean) * (var + eps) ** -0.5 + beta`` as one node.

    Without ``stats`` the mean and (biased) variance are taken over ``axes``
    of ``x`` and differentiated through; ``stats=(mean, var)`` supplies them
    as (1, C, 1, 1) constants (eval mode), and the node is ``_affine_norm``'s
    map, equal to this to roundoff, with no backward. ``gamma`` and ``beta``
    are per-channel along ``channel_axis``. Returns ``(out, mean, var)``.
    """
    if stats is None:
        out, backward, mean, var = _normalize(
            x.data, gamma.data, beta.data, axes, channel_axis, eps, False)
    else:
        (mean, var), backward = stats, _eval_norm_backward
        out = _affine_norm(x.data, gamma.data, beta.data, stats, eps)
    return Tensor._from_op(out, (x, gamma, beta), backward), mean, var


def _conv2d(xs, w, stride, need_gx):
    """Bias-free array kernel of ``conv2d`` and ``conv_norm`` over the
    channel concat of the parts ``xs``: returns ``(out, backward)`` with
    ``backward(g) -> (*gxs, gw)``, where ``gxs[i]`` is None unless
    ``need_gx[i]``. More than one part needs a 1×1 stride-1 kernel."""
    if w.ndim != 4 or any(x.ndim != 4 for x in xs):
        raise ShapeError(f"conv2d expects 4-d x and w, got "
                         f"{[x.shape for x in xs]}, {w.shape}")
    C_in = sum(x.shape[1] for x in xs)
    C_out, _, kh, kw = w.shape
    if w.shape[1] != C_in or kh != kw:
        raise ShapeError(
            f"conv2d needs a square kernel over the input's {C_in} channels, "
            f"got w of shape {w.shape}")
    if kh == 1 and stride == 1:
        return _pointwise(xs, w, need_gx)
    if len(xs) != 1:
        raise ShapeError(f"a {kh}x{kw} stride-{stride} conv takes one input, "
                         f"got {len(xs)} parts")
    x, s, p = xs[0], stride, kh // 2
    B, _, H, W = x.shape
    Ho, Wo = (H + 2 * p - kh) // s + 1, (W + 2 * p - kw) // s + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.shape}")
    if s == 1 and kh % 2 and Ho * Wo >= _SHIFTED_MIN_PIXELS:
        return _shifted(x, w, p, need_gx[0])
    wins = _taps(kh, p, s, H, W, Ho, Wo)

    def columns():  # im2col, (B, C_in·k·k, Ho·Wo); taps on the padding are 0
        cols = np.zeros((B, C_in, kh, kw, Ho, Wo), dtype=x.dtype)
        for i, j, ro, ri, co, ci in wins:
            cols[:, :, i, j, ro, co] = x[:, :, ri, ci]
        return cols.reshape(B, -1, Ho * Wo)

    w2 = w.reshape(C_out, -1)
    out = np.matmul(w2, columns()).reshape(B, C_out, Ho, Wo)

    def backward(g):
        g3 = g.reshape(B, C_out, Ho * Wo)
        gw = np.add.reduce(np.matmul(g3, columns().transpose(0, 2, 1)), 0)
        gx = None
        if need_gx[0]:
            gcols = np.matmul(w2.T, g3).reshape(B, C_in, kh, kw, Ho, Wo)
            gx = np.zeros(x.shape, x.dtype)
            for i, j, ro, ri, co, ci in wins:
                gx[:, :, ri, ci] += gcols[:, :, i, j, ro, co]
        return gx, gw.reshape(w.shape)

    return out, backward


def _shifted(x, w, p, need_gx):
    """Stride-1 ``_conv2d`` of odd k as k² shifted GEMMs (kn2row): tap (i, j)
    is the slice at ``i·Wp + j`` of ``x`` zero-padded into flat rows of ``Wp
    = W + 2p``; ``Σ_t W_t @ slice_t`` is the output plus 2p wrap columns a
    row. The node keeps ``x``, which its backward pads again."""
    (B, C_in, H, W), (C_out, _, k, _) = x.shape, w.shape
    Wp, n = W + 2 * p, H * (W + 2 * p)
    offs = [i * Wp + j for i in range(k) for j in range(k)]
    wt = w.transpose(2, 3, 0, 1).reshape(k * k, C_out, C_in)

    def flat(a, rows, q):  # zeros in flat rows of Wp, a at row q, column q
        f = np.zeros((B, a.shape[1], rows * Wp), a.dtype)
        f.reshape(B, a.shape[1], rows, Wp)[:, :, q:q + H, q:q + W] = a
        return f

    xp = flat(x, H + 2 * p + 1, p)
    acc, tmp = np.matmul(wt[0], xp[:, :, :n]), np.empty((B, C_out, n), x.dtype)
    for t, o in enumerate(offs[1:], 1):
        acc += np.matmul(wt[t], xp[:, :, o:o + n], out=tmp)
    out = acc.reshape(B, C_out, H, Wp)[:, :, :, :W].copy()

    def backward(g):
        xp, gp = flat(x, H + 2 * p + 1, p), flat(g, H, 0)
        gw = np.stack([np.add.reduce(np.matmul(
            gp, xp[:, :, o:o + n].transpose(0, 2, 1)), 0) for o in offs])
        gx = None
        if need_gx:
            gxp, tmp = np.zeros_like(xp), np.empty((B, C_in, n), xp.dtype)
            for t, o in enumerate(offs):
                gxp[:, :, o:o + n] += np.matmul(wt[t].T, gp, out=tmp)
            gx = gxp.reshape(B, C_in, -1, Wp)[:, :, p:p + H, p:p + W]
        return gx, gw.reshape(k, k, C_out, C_in).transpose(2, 3, 0, 1)

    return out, backward


@functools.cache
def _taps(k, p, s, H, W, Ho, Wo):
    """Per tap of a k×k, stride-s, pad-p conv from H×W to Ho×Wo, the slices
    ``(i, j, out rows, in rows, out cols, in cols)`` of its in-input reads."""
    def window(n_out, n_in, off):
        a = max(0, -(off // s))
        b = max(a, min(n_out, (n_in - 1 - off) // s + 1))
        return slice(a, b), slice(a * s + off, b * s + off, s)
    return tuple((i, j, *window(Ho, H, i - p), *window(Wo, W, j - p))
                 for i in range(k) for j in range(k))


def _pointwise(xs, w, need_gx):
    """The 1×1 stride-1 case of ``_conv2d``: ``Σ_i resize(W_i · x_i)``
    at the first part's size, with ``W_i`` the column block of ``w`` over
    part i's channels. A resize acts on each channel alike and ``W_i``
    mixes channels pixel by pixel, so this is the conv of the parts'
    resized concat, which is never built. One part is a plain 1×1 conv."""
    B, _, H, W = xs[0].shape
    C_out = w.shape[0]
    blocks = np.split(w.reshape(C_out, -1),
                      list(accumulate(x.shape[1] for x in xs))[:-1], axis=1)
    cols = [x.reshape(B, x.shape[1], -1) for x in xs]
    mats = [None if x.shape[2:] == (H, W) else
            (_resize_matrix(x.shape[2], H), _resize_matrix(x.shape[3], W))
            for x in xs]
    out = np.matmul(blocks[0], cols[0]).reshape(B, C_out, H, W)
    for x, wi, ci, m in zip(xs[1:], blocks[1:], cols[1:], mats[1:]):
        y = np.matmul(wi, ci).reshape(B, C_out, *x.shape[2:])
        out += y if m is None else m[0] @ y @ m[1].T

    def backward(g):
        gxs, gws = [], []
        for x, wi, ci, m, need in zip(xs, blocks, cols, mats, need_gx):
            gy = (g if m is None else m[0].T @ g @ m[1]).reshape(B, C_out, -1)
            gws.append(np.add.reduce(np.matmul(gy, ci.transpose(0, 2, 1)), 0))
            gxs.append(np.matmul(wi.T, gy).reshape(x.shape) if need else None)
        return (*gxs, np.concatenate(gws, 1).reshape(w.shape))

    return out, backward


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """2-d cross-correlation on (B, C, H, W) input plus a per-channel bias,
    which this node alone adds to the bias-free kernel's output.

    ``w`` is (C_out, C_in, k, k), a square kernel zero-padded by ``k // 2``:
    a GEMM at 1×1, shifted GEMMs at stride 1 from ``_SHIFTED_MIN_PIXELS``
    output pixels, else im2col. Each keeps ``x`` alone, which nothing may
    write in place, and forms no gradient for an ``x`` needing none.
    """
    out, backward = _conv2d([x.data], w.data, stride, [x.requires_grad])
    out += b.data.reshape(1, -1, 1, 1)
    return Tensor._from_op(out, (x, w, b), lambda g: (
        *backward(g), np.add.reduce(g, (0, 2, 3))))


def conv_norm(x, w: Tensor, gamma: Tensor, beta: Tensor, stride: int,
              eps: float, stats=None, relu: bool = False):
    """Bias-free conv → batch ``normalize`` over (B, H, W) → optional ReLU
    as one node (the batch mean would cancel a conv bias). The conv output
    is this node's own, so the normalization and the ReLU overwrite it in
    place; the backward masks by the output's sign. Values and gradients
    equal zero-bias ``conv2d``, ``normalize`` and ReLU nodes composed, bit
    for bit. With ``stats`` (eval mode) the norm is ``_affine_norm``'s map
    and the node has no backward. Returns ``(out, mean, var)``.

    ``x`` is a tensor or, for a 1×1 stride-1 conv, a list of parts whose
    channels concatenate to ``w``'s input channels: the conv then runs on
    their concat bilinearly resized to the first part's size, each part
    projected at its own size before its resize (see ``_pointwise``).
    """
    parts = [x] if isinstance(x, Tensor) else list(x)
    xs, need = [p.data for p in parts], [p.requires_grad for p in parts]
    y, conv_backward = _conv2d(xs, w.data, stride, need)
    if stats is None:
        out, norm_backward, mean, var = _normalize(
            y, gamma.data, beta.data, (0, 2, 3), 1, eps, True)
    else:
        (mean, var), out = stats, _affine_norm(y, gamma.data, beta.data,
                                               stats, eps, out=y)
    if relu:
        np.maximum(out, 0, out=out)

    def backward(g):  # the masked gradient is this call's own; g may be shared
        gy, ggamma, gbeta = norm_backward(g * (out > 0) if relu else g, relu)
        return (*conv_backward(gy), ggamma, gbeta)

    return (Tensor._from_op(out, (*parts, w, gamma, beta), backward
                            if stats is None else _eval_norm_backward), mean, var)


def bilinear_resize(x: Tensor, target) -> Tensor:
    """Bilinear resize of a (B, C, H, W) tensor with align_corners=false,
    ``ry @ x @ rxᵀ``; the backward is ``ryᵀ @ g @ rx``.

    Source coordinate for destination index d is (d + 0.5) * scale - 0.5,
    clamped to the border.
    """
    if x.ndim != 4:
        raise ShapeError(f"bilinear_resize expects (B,C,H,W), got {x.shape}")
    Ht, Wt = int(target[0]), int(target[1])
    if Ht < 1 or Wt < 1:
        raise ShapeError(f"invalid target size {target}")
    ry, rx = _resize_matrix(x.shape[2], Ht), _resize_matrix(x.shape[3], Wt)
    return Tensor._from_op(ry @ x.data @ rx.T, (x,),
                           lambda g: (ry.T @ g @ rx,))


@functools.cache
def _resize_matrix(src: int, dst: int) -> np.ndarray:
    """(dst, src) interpolation matrix for one resize axis, built once per
    size pair and shared, so it is read-only.

    Row d puts 1 - frac on tap lo and frac on tap hi; at a clamped border
    lo == hi and the two weights sum to 1 in the same cell.
    """
    coord = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    coord = np.clip(coord, 0.0, src - 1.0)
    lo = np.floor(coord).astype(np.int64)
    hi = np.minimum(lo + 1, src - 1)
    frac = coord - lo
    rows = np.arange(dst)
    m = np.zeros((dst, src))
    m[rows, lo] = 1.0 - frac
    m[rows, hi] += frac
    m.flags.writeable = False
    return m

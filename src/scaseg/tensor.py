"""Dense N-d tensor with reverse-mode automatic differentiation.

The graph is recorded eagerly: every primitive that touches a tensor with
``requires_grad`` produces a node holding a backward closure and references
to its parents, except inside the forward of an eval-mode ``SegModel``,
which records no graph. ``Tensor.backward()`` topologically sorts the
graph and accumulates gradients additively over fan-out, so calling it
twice without ``zero_grad`` doubles every leaf gradient.

All primitives are implemented on top of numpy; double precision is the
default dtype and is what the finite-difference checks assume. The conv and
normalization math lives in array kernels that return ``(out, backward)``;
``conv2d`` and ``normalize`` wrap one kernel each into a node, and the fused
``conv_norm`` node chains both, normalizing the conv output in place.
``bilinear_resize`` is the one-part case of ``resize_concat``; its
interpolation matrices are cached per (source, target) size pair and are
read-only.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate

import numpy as np
from scipy.special import erf

from .errors import ShapeError, UsageError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
# dtype instances, so the membership test converts no scalar type per call;
# a float array in non-native byte order is not a member and is converted
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
# graph recording switch; decoder.SegModel.__call__ clears it in eval mode
_record = [True]


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
        if _record[0] and any(p.requires_grad for p in parents):
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

    def zero_grad(self):
        if self.grad is not None:  # in place: a packed gradient stays a view
            self.grad.fill(0.0)

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
        # exact erf form; derivative Phi(x) + x * phi(x)
        a = self
        x = self.data
        cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))

        def backward(g):
            pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
            return (g * (cdf + x * pdf),)

        return Tensor._from_op(x * cdf, (a,), backward)


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
    """``x @ W + b`` over the last axis as one node. ``w`` is ``(d_in,
    d_out)`` or a 1×1 conv weight ``(d_out, d_in, 1, 1)``, read through its
    transposed 2-D view; its gradient keeps ``w``'s shape."""
    wm = w.data if w.ndim == 2 else w.data.reshape(w.shape[0], -1).T
    d_in, d_out = wm.shape
    if x.shape[-1] != d_in:
        raise ShapeError(f"linear expects last dim {d_in}, got {x.shape}")
    out = np.matmul(x.data, wm)
    out += b.data

    def backward(g):
        g2, x2 = g.reshape(-1, d_out), x.data.reshape(-1, d_in)
        gw = x2.T @ g2 if w.ndim == 2 else (g2.T @ x2).reshape(w.shape)
        return np.matmul(g, wm.T), gw, np.add.reduce(g2, 0)

    return Tensor._from_op(out, (x, w, b), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int):
    """Multi-head ``softmax(QKᵀ/√d_k)·V``, head split and merge included, as
    one node. ``q`` is ``(..., n_q, d)``, ``k`` and ``v`` ``(..., n_kv, d)``.
    Returns the output and ``P``, ``(B, heads, n_q, n_kv)`` with the leading
    axes flattened into ``B``. The backward reads ``P`` and never writes it;
    its softmax part is ``dS = P ∘ (dP − rowsum(dP ∘ P))``."""
    if (k.shape != v.shape or q.shape[-1] % heads
            or k.shape[:-2] + k.shape[-1:] != q.shape[:-2] + q.shape[-1:]):
        raise ShapeError(f"attention with {heads} heads got q {q.shape}, "
                         f"k {k.shape}, v {v.shape}")
    dk = q.shape[-1] // heads

    def split(t):  # (..., n, d) -> (B, heads, n, dk)
        return t.reshape(-1, t.shape[-2], heads, dk).transpose(0, 2, 1, 3)

    def merge(t):  # (B, heads, n, dk) -> (..., n, d)
        return t.transpose(0, 2, 1, 3).reshape(*q.shape[:-2], t.shape[2], -1)

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
        return (merge(np.matmul(ds, kh)),
                merge(np.matmul(ds.transpose(0, 1, 3, 2), qh)),
                merge(np.matmul(p.transpose(0, 1, 3, 2), gh)))

    return Tensor._from_op(merge(np.matmul(p, vh)), (q, k, v), backward), p


def depthwise_tokens(x: Tensor, grid, w: Tensor, b: Tensor) -> Tensor:
    """Depthwise k×k conv (stride 1, zero padding k // 2, ``w`` of shape
    ``(C, 1, k, k)``) on ``(..., h·w, C)`` row-major tokens of ``grid = (h,
    w)``, as one node: a shifted multiply-add per tap over a zero-padded
    channels-last buffer, skipping taps that see only padding. The backward
    runs the same shifts."""
    h, wd = int(grid[0]), int(grid[1])
    C, k = w.shape[0], w.shape[-1]
    if x.shape[-2:] != (h * wd, C) or w.shape != (C, 1, k, k):
        raise ShapeError(f"depthwise weight {w.shape} on tokens {x.shape} "
                         f"over a {h}x{wd} grid")
    p = k // 2
    xm = x.data.reshape(-1, h, wd, C)
    xp = np.zeros((len(xm), h + 2 * p, wd + 2 * p, C), x.dtype)
    xp[:, p:p + h, p:p + wd] = xm
    taps = w.data[:, 0].transpose(1, 2, 0)  # (k, k, C)
    live = [(i, j) for i in range(k) for j in range(k)
            if abs(i - p) < h and abs(j - p) < wd]
    out = np.zeros(xm.shape, xm.dtype)
    for i, j in live:
        out += xp[:, i:i + h, j:j + wd] * taps[i, j]
    out += b.data

    def backward(g):
        gm = g.reshape(xm.shape)
        gxp = np.zeros(xp.shape, xp.dtype)
        gtaps = np.zeros(taps.shape, taps.dtype)
        for i, j in live:
            gxp[:, i:i + h, j:j + wd] += gm * taps[i, j]
            gtaps[i, j] = np.add.reduce(
                (gm * xp[:, i:i + h, j:j + wd]).reshape(-1, C), 0)
        return (gxp[:, p:p + h, p:p + wd].reshape(x.shape),
                gtaps.transpose(2, 0, 1).reshape(w.shape),
                np.add.reduce(gm.reshape(-1, C), 0))

    return Tensor._from_op(out.reshape(x.shape), (x, w, b), backward)


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


def log_softmax_data(z: np.ndarray, axis: int) -> np.ndarray:
    """``z - log(sum(exp(z)))`` along ``axis``, shifted by the max first."""
    out = z - z.max(axis=axis, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=axis, keepdims=True))
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    _check_axis(x, axis)
    out_data = log_softmax_data(x.data, axis)
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


def _normalize(x, gamma, beta, axes, channel_axis, eps, stats, inplace):
    """Array kernel of ``normalize``: returns ``(out, backward, mean, var)``
    with ``backward(gout) -> (gx, ggamma, gbeta)``. With ``inplace`` the
    caller's ``x`` is overwritten by ``x̂``, which the backward keeps."""
    pshape = [1] * x.ndim
    pshape[channel_axis] = gamma.size
    g = gamma.reshape(pshape)
    if stats is None:
        n = math.prod([x.shape[a] for a in axes])
        mean = np.add.reduce(x, axes, keepdims=True) * (1.0 / n)
        d = np.add(x, -mean, out=x if inplace else None)
        var = np.add.reduce(d * d, axes, keepdims=True) * (1.0 / n)
        inv = (var + eps) ** -0.5
    else:
        mean, var = stats
        d = np.add(x, -mean, out=x if inplace else None)
        inv = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(d, inv, out=d)
    out = xhat * g
    out += beta.reshape(pshape)

    def backward(gout):
        param_axes = tuple(i for i in range(gout.ndim) if pshape[i] == 1)
        gxhat = gout * g
        scratch = gout * xhat
        ggamma = np.add.reduce(scratch, param_axes).reshape(gamma.shape)
        if stats is None:
            # d/dx of xhat, with mean and var functions of x; sum / n is
            # exactly what ndarray.mean computes
            m1 = np.add.reduce(gxhat, axes, keepdims=True) / n
            m2 = np.add.reduce(gxhat * xhat, axes, keepdims=True) / n
            gxhat -= m1
            gxhat -= np.multiply(xhat, m2, out=scratch)
        gxhat *= inv
        return (gxhat, ggamma,
                np.add.reduce(gout, param_axes).reshape(beta.shape))

    return out, backward, mean, var


def normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes: tuple,
              channel_axis: int, eps: float, stats=None):
    """``gamma * (x - mean) * (var + eps) ** -0.5 + beta`` as one node.

    Without ``stats`` the mean and (biased) variance are taken over ``axes``
    of ``x`` and differentiated through; ``stats=(mean, var)`` supplies them
    as constants broadcastable to ``x`` (batch-norm eval mode). ``gamma``
    and ``beta`` are per-channel along ``channel_axis``. Returns
    ``(out, mean, var)``, the statistics as keepdims numpy arrays.
    """
    out, backward, mean, var = _normalize(x.data, gamma.data, beta.data, axes,
                                          channel_axis, eps, stats, False)
    return Tensor._from_op(out, (x, gamma, beta), backward), mean, var


def _conv2d(x, w, b, stride, need_gx):
    """Array kernel of ``conv2d``: returns ``(out, backward)`` with
    ``backward(g) -> (gx, gw, gb)``; ``gx`` is None unless ``need_gx``."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d x and w, got {x.shape}, {w.shape}")
    B, C_in, H, W = x.shape
    C_out, _, kh, kw = w.shape
    if w.shape[1] != C_in or kh != kw:
        raise ShapeError(
            f"conv2d needs a square kernel over the input's {C_in} channels, "
            f"got w of shape {w.shape}")
    s, p = stride, kh // 2
    Ho = (H + 2 * p - kh) // s + 1
    Wo = (W + 2 * p - kw) // s + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.shape}")

    k = C_in * kh * kw
    pointwise = kh == 1 and s == 1
    if pointwise:
        cols = np.ascontiguousarray(x).reshape(B, k, Ho * Wo)
    else:
        xp = np.zeros((B, C_in, H + 2 * p, W + 2 * p), x.dtype)
        xp[:, :, p:p + H, p:p + W] = x
        cols = np.empty((B, C_in, kh, kw, Ho, Wo), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[:, :, i, j] = xp[:, :, i:i + s * Ho:s, j:j + s * Wo:s]
        cols = cols.reshape(B, k, Ho * Wo)
    w2 = w.reshape(C_out, k)
    out = np.matmul(w2, cols).reshape(B, C_out, Ho, Wo)
    out += b.reshape(1, C_out, 1, 1)

    def backward(g):
        g3 = g.reshape(B, C_out, Ho * Wo)
        gw = np.add.reduce(np.matmul(g3, cols.transpose(0, 2, 1)), 0)
        gx = None
        if need_gx:
            gcols = np.matmul(w2.T, g3)
            if pointwise:
                gx = gcols.reshape(x.shape)
            else:
                gcols = gcols.reshape(B, C_in, kh, kw, Ho, Wo)
                gxp = np.zeros((B, C_in, H + 2 * p, W + 2 * p), x.dtype)
                for i in range(kh):
                    for j in range(kw):
                        gxp[:, :, i:i + s * Ho:s, j:j + s * Wo:s] += gcols[:, :, i, j]
                gx = gxp[:, :, p:p + H, p:p + W] if p else gxp
        return gx, gw.reshape(w.shape), np.add.reduce(g, (0, 2, 3))

    return out, backward


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """2-d cross-correlation with a bias on (B, C, H, W) input.

    ``w`` is (C_out, C_in, k, k), a square kernel zero-padded by ``k // 2``.
    Implemented as im2col + batched matmul. The backward pass computes the
    weight gradient as one GEMM per image, ``g @ colsᵀ``, summed over the
    batch, and scatters the input gradient with a fixed loop order so
    results are deterministic; it skips the input gradient when ``x`` needs
    none.

    A 1×1 kernel with stride 1 skips im2col: the column matrix is ``x``
    itself (copied only if it is not C-contiguous), and the input gradient
    is the column gradient reshaped, with no scatter.
    """
    out, backward = _conv2d(x.data, w.data, b.data, stride, x.requires_grad)
    return Tensor._from_op(out, (x, w, b), backward)


def conv_norm(x: Tensor, w: Tensor, b: Tensor, gamma: Tensor, beta: Tensor,
              stride: int, eps: float, stats=None, relu: bool = False):
    """``conv2d`` → batch ``normalize`` over (B, H, W) → optional ReLU as
    one node, chaining the two kernels. The conv output belongs to this
    node alone, so the normalization overwrites it with ``x̂`` in place,
    and the ReLU clamps the output in place; the backward masks by the
    output's sign. Values and gradients equal the three composed nodes bit
    for bit. Returns ``(out, mean, var)`` as ``normalize`` does.
    """
    y, conv_backward = _conv2d(x.data, w.data, b.data, stride, x.requires_grad)
    out, norm_backward, mean, var = _normalize(
        y, gamma.data, beta.data, (0, 2, 3), 1, eps, stats, True)
    if relu:
        np.maximum(out, 0, out=out)

    def backward(g):
        gy, ggamma, gbeta = norm_backward(g * (out > 0) if relu else g)
        return (*conv_backward(gy), ggamma, gbeta)

    return Tensor._from_op(out, (x, w, b, gamma, beta), backward), mean, var


def bilinear_resize(x: Tensor, target) -> Tensor:
    """Bilinear resize of a (B, C, H, W) tensor with align_corners=false.

    Source coordinate for destination index d is (d + 0.5) * scale - 0.5,
    clamped to the border.
    """
    if x.ndim != 4:
        raise ShapeError(f"bilinear_resize expects (B,C,H,W), got {x.shape}")
    Ht, Wt = int(target[0]), int(target[1])
    if Ht < 1 or Wt < 1:
        raise ShapeError(f"invalid target size {target}")
    return resize_concat([x], (Ht, Wt))


def resize_concat(parts, target) -> Tensor:
    """``concat([bilinear_resize(p, target) for p in parts], axis=1)`` as one
    node: each (B, C_i, H_i, W_i) part is resized, ``ry @ p @ rxᵀ``, straight
    into its channel slice of the output, or copied there at the target
    size, so no resized part is kept. The backward resizes each slice of
    the gradient back, ``ryᵀ @ g_i @ rx``."""
    Ht, Wt = target
    ends = list(accumulate(p.shape[1] for p in parts))
    out = np.empty((parts[0].shape[0], ends[-1], Ht, Wt))
    mats = []
    for p, e in zip(parts, ends):
        H, W = p.shape[2:]
        dst = out[:, e - p.shape[1]:e]
        if (H, W) == (Ht, Wt):
            dst[...] = p.data
            mats.append(None)
        else:
            ry, rx = _resize_matrix(H, Ht), _resize_matrix(W, Wt)
            np.matmul(ry @ p.data, rx.T, out=dst)
            mats.append((ry, rx))

    def backward(g):
        gps = (g[:, e - p.shape[1]:e] for p, e in zip(parts, ends))
        return tuple(gp if m is None else m[0].T @ gp @ m[1]
                     for m, gp in zip(mats, gps))

    return Tensor._from_op(out, tuple(parts), backward)


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

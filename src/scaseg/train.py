"""Supervised training: pixel cross-entropy, AdamW with a linear (power-1
poly) learning-rate decay, and mean intersection-over-union evaluation."""

from __future__ import annotations

import numpy as np

from .config import TrainConfig
from .data import SyntheticSample
from .errors import DataError, NumericalError, ShapeError, UsageError
from .module import Module
from .rng import RandomSource
from .serialization import save_checkpoint
from .tensor import Tensor


def cross_entropy(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over pixels of -log softmax(logits)[true class].

    One graph node whose only parent is ``logits``; its gradient is
    ``(softmax(logits) - onehot(mask)) / n`` over the ``n = B*H*W`` pixels.
    It keeps one full-size buffer, ``e = exp(z - max_k z)``; the backward
    writes ``e·(g/n)/Σ_k e`` and subtracts ``g/n`` at the labels.
    """
    if logits.ndim != 4:
        raise ShapeError(f"cross_entropy expects (B, K, H, W) logits, got {logits.shape}")
    B, K, H, W = logits.shape
    mask = np.asarray(mask)
    if mask.shape != (B, H, W) or mask.size == 0:
        raise DataError(f"mask shape {mask.shape} is empty or does not match {logits.shape}")
    if mask.dtype.kind not in "iu" or mask.min() < 0 or mask.max() >= K:
        raise DataError(f"labels must be integers in 0..{K - 1}, got "
                        f"{mask.dtype} in [{mask.min()}, {mask.max()}]")
    flat = mask[:, None].astype(np.intp)  # (b·K + label)·H·W + pixel, in intp
    flat += np.arange(0, B * K, K).reshape(B, 1, 1, 1)
    flat *= H * W
    flat += np.arange(H * W).reshape(H, W)
    inv_n = 1.0 / (B * H * W)
    e = logits.data - np.maximum.reduce(logits.data, 1, keepdims=True)
    picked = e.take(flat)
    s = np.add.reduce(np.exp(e, out=e), 1, keepdims=True)
    loss = -(picked - np.log(s)).sum() * inv_n

    def backward(g):
        grad = np.multiply(e, g * inv_n / s)
        np.put(grad, flat, grad.take(flat) - g * inv_n)
        return (grad,)

    return Tensor._from_op(loss, (logits,), backward)


def poly_lr(iteration: int, cfg: TrainConfig) -> float:
    if not 0 <= iteration < cfg.iterations:
        raise UsageError(
            f"iteration {iteration} outside 0..{cfg.iterations - 1}")
    return cfg.base_lr * (1.0 - iteration / cfg.iterations)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 32768  # elements per update pass: its six arrays then stay in L2


def _arena(arrays) -> np.ndarray:
    """The flat buffer that ``arrays`` tile in order, as C-contiguous views
    from its first element to its last."""
    base = getattr(arrays[0], "base", None) if arrays else None
    starts = np.cumsum([0] + [np.size(a) for a in arrays])
    if not (isinstance(base, np.ndarray) and base.shape == (starts[-1],) and all(
            getattr(a, "base", None) is base and a.flags.c_contiguous
            and a.ctypes.data == base[start:].ctypes.data
            for a, start in zip(arrays, starts))):
        raise UsageError("AdamW needs parameters packed by "
                         "Module.pack_parameters, in named_parameters() order")
    return base


class AdamW:
    """Adam with decoupled weight decay (beta1=0.9, beta2=0.999, eps=1e-8).

    The parameters must tile one arena in order, as
    ``Module.pack_parameters`` leaves them: a step updates the model's
    ``flat_data`` from its ``flat_grad`` in place, one vectorized pass per
    ``ADAM_BLOCK`` elements, and leaves the gradients as they were.
    """

    def __init__(self, named_params, weight_decay: float = 0.01):
        self.named_params = list(named_params)
        self.weight_decay = weight_decay
        self.t = 0
        self.flat = _arena([p.data for _, p in self.named_params])
        self.grad = _arena([p.grad for _, p in self.named_params])
        self.m = np.zeros(self.flat.size)
        self.v = np.zeros(self.flat.size)
        self.scratch = np.empty((2, min(ADAM_BLOCK, self.flat.size)))

    def step(self, lr: float):
        """One update. A non-finite gradient raises ``NumericalError``
        naming the first such parameter and leaves every parameter as it
        was."""
        if not np.isfinite(self.grad).all():
            name = next(n for n, p in self.named_params
                        if not np.isfinite(p.grad).all())
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for lo in range(0, self.flat.size, ADAM_BLOCK):
            sl = slice(lo, lo + ADAM_BLOCK)
            p, m, v, g = self.flat[sl], self.m[sl], self.v[sl], self.grad[sl]
            s, d = self.scratch[:, :p.size]
            # in place, in a per-tensor update's element order (bit-identical):
            # p -= (lr*wd)*p; m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
            # p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
            if self.weight_decay:
                p -= np.multiply(p, lr * self.weight_decay, out=s)
            m *= ADAM_BETA1
            m += np.multiply(g, 1 - ADAM_BETA1, out=s)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(g, 1 - ADAM_BETA2, out=s), g, out=s)
            np.sqrt(np.divide(v, bc2, out=d), out=d)
            d += ADAM_EPS
            p -= np.divide(np.multiply(np.divide(m, bc1, out=s), lr, out=s), d, out=s)


def _iou_counts(pred: np.ndarray, true: np.ndarray, K: int):
    """Per-class intersection and union pixel counts of two label maps."""
    classes = np.arange(K).reshape((K,) + (1,) * pred.ndim)
    p, t = pred == classes, true == classes
    axes = tuple(range(1, p.ndim))
    return (p & t).sum(axis=axes), (p | t).sum(axis=axes)


def _mean_iou(inter: np.ndarray, union: np.ndarray) -> float:
    """Mean IoU over the classes present in either map (0.0 if none is)."""
    seen = union > 0
    return float((inter[seen] / union[seen]).mean()) if seen.any() else 0.0


def miou(pred: np.ndarray, true: np.ndarray, K: int):
    """Per-class IoU (``None`` for a class absent from both maps) and their
    mean over the present classes."""
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape:
        raise DataError(f"shape mismatch {pred.shape} vs {true.shape}")
    inter, union = _iou_counts(pred, true, K)
    ious = [float(i / u) if u else None for i, u in zip(inter, union)]
    return ious, _mean_iou(inter, union)


def evaluate(model: Module, samples: list[SyntheticSample], K: int) -> float:
    """Dataset mIoU from per-class intersection/union counts summed over
    the samples: ``miou`` of all predictions and masks taken together."""
    was_training = model.training
    model.eval()
    inter = np.zeros(K, dtype=np.int64)
    union = np.zeros(K, dtype=np.int64)
    for sample in samples:
        logits = model(Tensor(sample.image[None]))
        i, u = _iou_counts(logits.data.argmax(axis=1)[0], sample.mask, K)
        inter += i
        union += u
    if was_training:
        model.train()
    return _mean_iou(inter, union)


def _format_row(iteration: int, lr: float, loss: float, val) -> str:
    m = "" if val is None else f"{val:.6f}"
    return f"{iteration},{lr:.10g},{loss:.10g},{m}"


def train_loop(model: Module, train_set: list[SyntheticSample],
               val_set: list[SyntheticSample], cfg: TrainConfig,
               metrics_path=None, checkpoint_path=None,
               log_fn=None) -> list[str]:
    """Run the optimization loop; returns the metrics CSV rows.

    On a non-finite loss the loop aborts with the last periodic checkpoint
    left in place.
    """
    cfg.validate()
    num_classes = model.decoder.cfg.num_classes
    # one fixed shuffle, then cyclic in-order batches: deterministic, and
    # equal-length windows of the loss curve cover identical data
    order = RandomSource(cfg.seed).spawn(999).choice(
        len(train_set), len(train_set), replace=False)
    optimizer = AdamW(model.named_parameters(), weight_decay=cfg.weight_decay)
    rows = ["iter,lr,loss,miou"]
    model.train()
    try:
        for iteration in range(cfg.iterations):
            lr = poly_lr(iteration, cfg)
            start = (iteration * cfg.batch_size) % len(order)
            idx = np.take(order, range(start, start + cfg.batch_size),
                          mode="wrap")
            images = np.stack([train_set[i].image for i in idx])
            masks = np.stack([train_set[i].mask for i in idx])

            logits = model(Tensor(images))
            loss = cross_entropy(logits, masks)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NumericalError(
                    f"loss became non-finite at iteration {iteration}")

            model.zero_grad()
            loss.backward()
            optimizer.step(lr)
            del logits, loss  # free this step's graph before the next forward

            is_eval = ((iteration + 1) % cfg.eval_interval == 0
                       or iteration == cfg.iterations - 1)
            val = evaluate(model, val_set, num_classes) if is_eval else None
            row = _format_row(iteration, lr, loss_value, val)
            rows.append(row)
            if log_fn is not None:
                log_fn(row)
            if is_eval and checkpoint_path is not None:
                save_checkpoint(checkpoint_path, model.state())
    finally:
        if metrics_path is not None:
            with open(metrics_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
    return rows

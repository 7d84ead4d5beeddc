"""Tiny parameter-container base class.

Modules hold Tensors (parameters and buffers) and sub-modules as
attributes. One walk over the attributes, in definition order, finds all
three, so checkpoint files are stable. ``train()``/``eval()`` toggles
batch-norm behaviour.

``pack_parameters()`` makes each parameter's ``data`` and ``grad`` views of
two flat buffers, ``flat_data`` and ``flat_grad``; write them in place, as
``load_state`` does, since rebinding detaches them from the buffers.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .tensor import Tensor


class Module:
    training = True

    def named_parameters(self):
        return ((name, v) for name, v in _walk(self, "")
                if isinstance(v, Tensor) and v.requires_grad)

    def pack_parameters(self):
        params = [p for _, p in self.named_parameters()]
        self.flat_data = np.concatenate([p.data.reshape(-1) for p in params])
        self.flat_grad = np.zeros(self.flat_data.size)
        end = 0
        for p in params:
            n, shape = p.size, p.shape
            p.data = self.flat_data[end:end + n].reshape(shape)
            p.grad = self.flat_grad[end:end + n].reshape(shape)
            end += n

    def zero_grad(self):
        self.flat_grad.fill(0.0)

    def train(self, training: bool = True):
        for _, v in _walk(self, ""):
            if isinstance(v, Module):
                v.training = training
        return self

    def eval(self):
        return self.train(False)

    def state(self):
        """Parameters plus non-trainable buffers (batch-norm running stats)."""
        out = list(self.named_parameters())
        out.extend(self.named_buffers())
        return out

    def named_buffers(self):
        return ((name, v) for name, v in _walk(self, "")
                if isinstance(v, Tensor) and not v.requires_grad)

    def load_state(self, named_tensors):
        """Copy a checkpoint into the model. Every model entry must be in it
        once, finite, and for a batch-norm ``running_var`` at least 0; the
        model is left untouched when the checkpoint is rejected."""
        current = dict(self.state())
        missing = dict(current)
        pairs = list(named_tensors)
        for name, tensor in pairs:
            if missing.pop(name, None) is None:
                why = "is repeated" if name in current else "not in model"
                raise DataError(f"checkpoint entry {name!r} {why}")
            if current[name].shape != tensor.shape:
                raise DataError(
                    f"checkpoint entry {name!r} has shape {tensor.shape}, "
                    f"model expects {current[name].shape}")
            if not np.isfinite(tensor.data).all():
                raise DataError(f"checkpoint entry {name!r} holds non-finite "
                                f"values (NaN or inf)")
            if name.endswith("running_var") and (tensor.data < 0).any():
                raise DataError(f"checkpoint entry {name!r} holds a negative "
                                f"variance")
        if missing:
            raise DataError(
                f"checkpoint lacks {len(missing)} of the model's "
                f"{len(current)} entries, e.g. {', '.join(list(missing)[:3])}")
        for name, tensor in pairs:
            current[name].data[...] = tensor.data


def _walk(value, path):
    """(path, value) for ``value`` if it is a Tensor or Module, then for every
    Tensor and Module under its attributes and list items, in definition
    order."""
    if isinstance(value, (Tensor, Module)):
        yield path, value
    if isinstance(value, Module):
        items = vars(value).items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return
    for key, v in items:
        yield from _walk(v, f"{path}.{key}" if path else str(key))

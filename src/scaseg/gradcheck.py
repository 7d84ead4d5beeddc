"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .tensor import Tensor


def gradient_check(f, x: Tensor, eps: float = 1e-4,
                   max_samples: int | None = None,
                   sample_seed: int = 0) -> float:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` maps a tensor to a scalar Tensor. Returns the maximum over checked
    elements of |analytic - numeric| / max(1, |analytic|), or inf if one of
    them is NaN, as a non-finite analytic gradient makes it. With
    ``max_samples`` set (at least 1), a deterministic subset of elements is
    probed instead of all of them (useful for a whole model's parameters).
    ``x`` gets its ``requires_grad`` flag and ``.grad`` back, also on a raise.
    """
    if eps <= 0:
        raise UsageError("eps must be positive")
    if max_samples is not None and max_samples < 1:
        raise UsageError("max_samples must be at least 1; None probes every element")
    requires_grad, grad = x.requires_grad, x.grad
    x.zero_grad()
    x.requires_grad = True
    try:
        out = f(x)
        if not isinstance(out, Tensor) or out.size != 1:
            raise UsageError("gradient_check requires a scalar-valued function")
        out.backward()
        analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
        x.zero_grad()

        flat = x.data.reshape(-1)
        n = flat.size
        if max_samples is None or max_samples >= n:
            idx = range(n)
        else:
            rng = np.random.Generator(np.random.PCG64(sample_seed))
            idx = np.sort(rng.choice(n, size=max_samples, replace=False))

        def probe(i, step):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(f(x).data)
            flat[i] = orig - step
            lo = float(f(x).data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            return abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]))

        a_flat = analytic.reshape(-1)
        worst = 0.0
        for i in idx:
            err = probe(i, eps)
            # A probe interval straddling a kink (e.g. a ReLU argument crossing
            # zero) inflates the difference quotient by O(eps) even when the
            # analytic gradient is right. Shrinking the step resolves it: kink
            # noise and truncation error vanish, a wrong gradient does not.
            for smaller in (eps / 10, eps / 100):
                if err < worst:
                    break
                err = min(err, probe(i, smaller))
            if np.isnan(err):  # a NaN gradient, whose error max() would drop
                return np.inf
            worst = max(worst, err)
        return worst
    finally:
        x.requires_grad, x.grad = requires_grad, grad

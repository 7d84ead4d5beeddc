"""Seedable randomness service.

Every stochastic piece of the package (weight init, synthetic data, batch
sampling) draws from a RandomSource so runs are bit-reproducible from a
single seed.
"""

import numpy as np


class RandomSource:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, stream: int) -> "RandomSource":
        """Derive an independent child stream, stable under the parent seed."""
        return RandomSource((self.seed * 1_000_003 + stream) & 0x7FFFFFFF)

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape)

    def truncated_normal(self, shape, std: float = 0.02) -> np.ndarray:
        """Normal(0, std) resampled until within two standard deviations."""
        out = self._gen.normal(0.0, std, size=shape)
        bad = np.abs(out) > 2.0 * std
        while bad.any():
            out[bad] = self._gen.normal(0.0, std, size=int(bad.sum()))
            bad = np.abs(out) > 2.0 * std
        return out

    def integers(self, low: int, high: int):
        return self._gen.integers(low, high)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

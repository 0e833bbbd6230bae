"""Seeded splitmix64 random streams.

Every source of randomness in the package (parameter init, data shuffling,
speckle, jitter, gaussian perturbation) draws from this generator, never
from interpreter or platform RNG state.  A run is bit-reproducible from its
seed on one machine, one numpy build and one BLAS kernel: integer and
uniform draws are exact everywhere, but gaussian and exponential draws go
through numpy's ``log``/``cos``/``sin`` and the model's GEMMs through BLAS.

The generator is the splitmix64 mixer: output i of a stream seeded with s is

    mix64(s + (i + 1) * 0x9E3779B97F4A7C15)

with mix64(z) = xorshift-multiply as below.  Because each output depends only
on the seed and its index, blocks of outputs are computed vectorized.
Uniform doubles take the top 53 bits: (z >> 11) * 2**-53, giving [0, 1).
Gaussians are Box-Muller pairs over consecutive uniforms.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U53 = float(2**-53)


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _fold_key(part) -> int:
    """Map a stream-key part (int or str) to a 64-bit integer, FNV-1a for text."""
    if isinstance(part, str):
        h = 0xCBF29CE484222325
        for b in part.encode("utf-8"):
            h = ((h ^ b) * 0x100000001B3) & _MASK
        return h
    return int(part) & _MASK


def derive_seed(seed: int, *parts) -> int:
    """Derive a child seed from a parent seed and a key path.

    Used to hand independent streams to parallel work items (per-image speckle,
    per-trial noise) without consuming the parent stream.
    """
    s = mix64(seed & _MASK)
    for part in parts:
        s = mix64((s ^ _fold_key(part)) + _GOLDEN)
    return s


def _shaped(shape, draw) -> np.ndarray:
    """``draw(n)`` for the n values of ``shape``, shaped; one value for ``()``."""
    out = draw(int(np.prod(shape)) if shape else 1)
    return out.reshape(shape) if shape else out[0]


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """A counter-based splitmix64 stream with vectorized draws."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        return mix64(self.seed + self._count * _GOLDEN)

    def _block(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix_array(np.uint64(self.seed) + idx * np.uint64(_GOLDEN))

    def _units(self, n: int) -> np.ndarray:
        """The next n doubles in [0, 1), the top 53 bits of each output."""
        return (self._block(n) >> np.uint64(11)).astype(np.float64) * _U53

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform doubles in [low, high), shaped."""
        return _shaped(shape, lambda n: low + (high - low) * self._units(n))

    def gaussian(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Standard-normal draws via Box-Muller, scaled and shifted."""
        def normal(n):
            pairs = (n + 1) // 2
            u = self._units(2 * pairs)
            r = np.sqrt(-2.0 * np.log(1.0 - u[:pairs]))  # 1 - u in (0, 1]: log is finite
            theta = 2.0 * np.pi * u[pairs:]
            return mean + std * np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]

        return _shaped(shape, normal)

    def exponential(self, shape=()) -> np.ndarray:
        """Unit-mean exponential draws."""
        return _shaped(shape, lambda n: -np.log1p(-self._units(n)))

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection on the top bits."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = _MASK - (_MASK % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def split(self, *parts) -> "SplitMix64":
        """Fresh stream keyed off this stream's seed and a key path."""
        return SplitMix64(derive_seed(self.seed, *parts))


class ZeroStream:
    """A root stream that draws nothing: ``split`` returns it, ``uniform`` zeros."""

    def split(self, *parts) -> "ZeroStream":
        return self

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return np.zeros(shape)

"""Seeded, platform-independent random number generation.

Every stochastic step in the toolkit (Gaussian sketches, train/test
splits, gradient-based sampling) draws from SplitMix64 so that a seed
fixes the output bit-for-bit on any machine, independent of the numpy
version or its global random state.

Conventions, fixed here so results are reproducible:

* SplitMix64 stream: output i is ``mix64(seed + (i + 1) * GOLDEN)`` with
  the usual finalizer constants, i.e. the generator is counter-based and
  a block of draws can be produced in one vectorized pass.
* Uniforms map the top 53 bits to (0, 1]: ``((x >> 11) + 1) * 2**-53``.
* Normal variates come from the Box-Muller transform on consecutive
  blocks of uniforms (cosine branch first, then the sine branch,
  interleaved).
* Permutations sort random 53-bit keys (argsort, stable), so a shuffle
  costs one vectorized draw.
"""

import numpy as np

__all__ = ["SplitMix64"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z):
    # SplitMix64 finalizer on a uint64 ndarray (wrapping arithmetic).
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based SplitMix64 generator with a 64-bit seed."""

    def __init__(self, seed: int):
        self._base = int(seed) & _MASK
        self._count = 0

    def next_u64(self) -> int:
        return int(self.u64_block(1)[0])

    def u64_block(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError("block size must be non-negative")
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            state = np.uint64(self._base) + idx * np.uint64(_GOLDEN)
            return _mix(state)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniforms on (0, 1] with 53-bit resolution."""
        bits = self.u64_block(n) >> np.uint64(11)
        return (bits.astype(np.float64) + 1.0) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normal variates via Box-Muller."""
        m = (n + 1) // 2
        u1 = self.uniforms(m)
        u2 = self.uniforms(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Standard normal matrix, filled row-major from the stream."""
        return self.normals(rows * cols).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n) by sorting random keys."""
        return np.argsort(self.uniforms(n), kind="stable")

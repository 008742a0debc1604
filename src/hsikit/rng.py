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
  interleaved): ``normals(n)`` takes its m = ceil(n / 2) u1 values from
  the next m outputs and its u2 values from the m after them, so any
  block of pairs can be drawn on its own (``normal_blocks``).
* Permutations sort random 53-bit keys (argsort, stable), so a shuffle
  costs one vectorized draw.
"""

import numpy as np

from .records import check_int

__all__ = ["SplitMix64"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z):
    # SplitMix64 finalizer on a uint64 ndarray (wrapping arithmetic).
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _unit(raw):
    # Top 53 bits of each raw output to (0, 1].
    return ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


class SplitMix64:
    """Counter-based SplitMix64 generator with a 64-bit seed: any integer,
    taken modulo 2**64; a bool, float or string raises ValueError."""

    def __init__(self, seed: int):
        check_int(seed, "seed")
        self._base = int(seed) & _MASK
        self._count = 0

    def _outputs(self, start: int, n: int) -> np.ndarray:
        # Outputs start + 1 .. start + n of the stream; the counter stays.
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return _mix(np.uint64(self._base) + idx * np.uint64(_GOLDEN))

    def _claim(self, n: int) -> int:
        # Advance past the next n outputs; returns the counter before them.
        if n < 0:
            raise ValueError("block size must be non-negative")
        start = self._count
        self._count += n
        return start

    def u64_block(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        return self._outputs(self._claim(n), n)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniforms on (0, 1] with 53-bit resolution."""
        return _unit(self.u64_block(n))

    def _claim_normals(self, n: int):
        # The uniforms of normals(n): m for the u1, then m for the u2.
        if n < 0:
            raise ValueError("block size must be non-negative")
        m = (n + 1) // 2
        return self._claim(2 * m), m

    def _box_muller(self, start: int, m: int, lo: int, hi: int) -> np.ndarray:
        # Variates lo .. hi - 1 (lo even) of the normals whose u1 follow
        # counter start and whose u2 follow counter start + m.
        pair, pairs = lo // 2, (hi - lo + 1) // 2
        u1 = _unit(self._outputs(start + pair, pairs))
        u2 = _unit(self._outputs(start + m + pair, pairs))
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[: hi - lo]

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normal variates via Box-Muller."""
        start, m = self._claim_normals(n)
        return self._box_muller(start, m, 0, n)

    def normal_blocks(self, n: int, block: int):
        """The variates of ``normals(n)`` as consecutive blocks of ``block``.

        Returns an iterator; the last block may be shorter. The counter
        advances now, exactly as ``normals(n)`` advances it, so later draws
        do not depend on how many blocks are read. ``block`` is even, so
        every block starts at a Box-Muller pair.
        """
        if block < 2 or block % 2:
            raise ValueError(f"block must be a positive even number, got {block}")
        start, m = self._claim_normals(n)
        return (self._box_muller(start, m, lo, min(lo + block, n)) for lo in range(0, n, block))

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Standard normal matrix, filled row-major from the stream."""
        return self.normals(rows * cols).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n) by sorting random keys."""
        return np.argsort(self.uniforms(n), kind="stable")

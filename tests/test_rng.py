"""Tests for the counter-based SplitMix64 generator."""

import numpy as np
import pytest

from hsikit.rng import SplitMix64


def test_same_seed_same_stream():
    a = SplitMix64(42).u64_block(100)
    b = SplitMix64(42).u64_block(100)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = SplitMix64(1).u64_block(64)
    b = SplitMix64(2).u64_block(64)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [2.7, 2.0, "3", True, None])
def test_non_integer_seed_rejected(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        SplitMix64(seed)


def test_numpy_and_negative_integer_seeds_accepted():
    # Any integer seed is taken modulo 2**64.
    expected = SplitMix64(2**64 - 5).u64_block(8)
    for seed in (-5, np.int64(-5), np.uint64(2**64 - 5), 2**128 - 5):
        assert np.array_equal(SplitMix64(seed).u64_block(8), expected)
    assert np.array_equal(SplitMix64(np.int32(7)).u64_block(8), SplitMix64(7).u64_block(8))


def test_block_matches_scalar_draws():
    # Counter-based: one block of n equals n single draws.
    rng = SplitMix64(7)
    block = rng.u64_block(10)
    rng2 = SplitMix64(7)
    singles = [int(rng2.u64_block(1)[0]) for _ in range(10)]
    assert list(block) == singles


def test_split_blocks_match_one_block():
    rng = SplitMix64(123)
    whole = rng.u64_block(20)
    rng2 = SplitMix64(123)
    parts = np.concatenate([rng2.u64_block(3), rng2.u64_block(12), rng2.u64_block(5)])
    assert np.array_equal(whole, parts)


def test_negative_block_size_rejected():
    with pytest.raises(ValueError):
        SplitMix64(0).u64_block(-1)
    # Box-Muller rounds n up to pairs; no negative n may round to zero.
    for n in (-1, -2, -3):
        with pytest.raises(ValueError, match="block size must be non-negative"):
            SplitMix64(0).normals(n)
        with pytest.raises(ValueError, match="block size must be non-negative"):
            SplitMix64(0).normal_blocks(n, 4)


def test_uniforms_in_half_open_unit_interval():
    u = SplitMix64(3).uniforms(100_000)
    assert u.min() > 0.0
    assert u.max() <= 1.0


def test_uniform_moments():
    u = SplitMix64(11).uniforms(200_000)
    assert abs(u.mean() - 0.5) < 2e-3
    assert abs(u.var() - 1.0 / 12.0) < 1e-3


def test_normals_moments():
    z = SplitMix64(5).normals(200_000)
    assert abs(z.mean()) < 1e-2
    assert abs(z.std() - 1.0) < 1e-2
    # Skewness of a symmetric distribution.
    assert abs((z**3).mean()) < 2e-2


def test_normals_odd_count():
    # Box-Muller produces pairs; odd requests drop the last variate.
    z = SplitMix64(9).normals(7)
    w = SplitMix64(9).normals(8)
    assert z.shape == (7,)
    assert np.array_equal(z, w[:7])


def test_normal_blocks_match_normals():
    # 1001 variates in blocks of 64 (which does not divide 1001): the
    # blocks join into normals(1001), and the stream moves on at the call,
    # before any block is read, exactly as normals(1001) moves it.
    whole_rng = SplitMix64(31)
    whole = whole_rng.normals(1001)
    after_whole = whole_rng.uniforms(5)

    rng = SplitMix64(31)
    blocks = rng.normal_blocks(1001, 64)
    after_blocks = rng.uniforms(5)
    parts = list(blocks)
    assert [len(b) for b in parts] == [64] * 15 + [41]
    assert np.array_equal(np.concatenate(parts), whole)
    assert np.array_equal(after_blocks, after_whole)


def test_normal_blocks_reject_odd_or_empty_block():
    for block in (0, 3, -2):
        with pytest.raises(ValueError, match="block must be a positive even number"):
            SplitMix64(0).normal_blocks(10, block)


def test_normal_matrix_row_major_fill():
    flat = SplitMix64(21).normals(12)
    mat = SplitMix64(21).normal_matrix(3, 4)
    assert np.array_equal(mat, flat.reshape(3, 4))


def test_permutation_is_permutation():
    p = SplitMix64(17).permutation(1000)
    assert np.array_equal(np.sort(p), np.arange(1000))


def test_permutation_deterministic():
    a = SplitMix64(29).permutation(50)
    b = SplitMix64(29).permutation(50)
    assert np.array_equal(a, b)


def test_permutation_nontrivial():
    p = SplitMix64(1).permutation(100)
    assert not np.array_equal(p, np.arange(100))


def test_known_uniform_mapping():
    # The top 53 bits map to ((bits >> 11) + 1) * 2**-53, never zero.
    rng = SplitMix64(42)
    raw = SplitMix64(42).u64_block(4)
    u = rng.uniforms(4)
    expect = ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    assert np.array_equal(u, expect)

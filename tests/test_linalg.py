"""Tests for Householder QR, exact truncated SVD, and the randomized
range finder / SVD pair."""

import numpy as np
import pytest

from _oracles import randomized_svd_reference
from hsikit.errors import ConvergenceError
from hsikit.hsi_data import HsiCube, SampleSet
from hsikit.linalg import (
    RandomizedSvdParams,
    as_matrix,
    exact_svd,
    fix_signs,
    householder_qr,
    randomized_range_finder,
    randomized_svd,
)
from hsikit.rng import SplitMix64


def random_matrix(m, n, seed):
    return SplitMix64(seed).normal_matrix(m, n)


def orthonormal(m, n, seed):
    q, _ = householder_qr(random_matrix(m, n, seed))
    return q


# ---------------------------------------------------------------- as_matrix


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]])


@pytest.mark.parametrize(
    "bad", [[["1.5", "2"]], [[True, False]], [[1.0 + 2.0j, 0.0]], [[True, 0.5]]]
)
def test_as_matrix_and_sample_set_reject_entries_that_are_not_real_numbers(bad):
    # numpy would cast strings, bools and complex values to floats, and
    # reads a list that mixes bools and floats as float64.
    with pytest.raises(ValueError, match="a must hold integers or floats, got dtype"):
        as_matrix(bad)
    with pytest.raises(ValueError, match="features must hold integers or floats, got dtype"):
        SampleSet(bad, [1], [0])
    with pytest.raises(ValueError, match="cube must hold integers or floats, got dtype"):
        HsiCube(1, 2, 1, [bad])


def test_as_matrix_converts_lists():
    a = as_matrix([[1, 2], [3, 4]])
    assert a.dtype == np.float64
    assert a.shape == (2, 2)


# ----------------------------------------------------------- householder_qr


def test_qr_rank_deficient_column():
    q, r = householder_qr([[3.0, 0.0], [4.0, 0.0]])
    # First column of Q spans the data column; R pivot has magnitude 5.
    assert abs(abs(r[0, 0]) - 5.0) < 1e-12
    col = q[:, 0] * np.sign(q[0, 0])
    assert np.allclose(col, [0.6, 0.8], atol=1e-12)
    # Zero second column: no reflection, zero diagonal entry of R.
    assert abs(r[1, 1]) < 1e-12
    # With a later column the rest of that row is not zero.
    a = random_matrix(6, 3, 3)
    a[:, 1] = 0.0
    q, r = householder_qr(a)
    assert r[1, 0] == 0.0 and abs(r[1, 1]) < 1e-12
    assert abs(r[1, 2]) > 0.1
    assert np.abs(q @ r - a).max() <= 1e-12


def test_qr_reconstruction_and_orthonormality():
    for seed, (m, n) in enumerate([(5, 3), (8, 8), (40, 7), (6, 1)]):
        a = random_matrix(m, n, seed + 100)
        q, r = householder_qr(a)
        assert q.shape == (m, n)
        assert r.shape == (n, n)
        assert np.allclose(q.T @ q, np.eye(n), atol=1e-12)
        assert np.array_equal(r, np.triu(r))
        scale = max(1.0, np.abs(a).max())
        assert np.abs(q @ r - a).max() <= 1e-10 * scale


def test_qr_rejects_wide_matrix():
    with pytest.raises(ValueError):
        householder_qr(np.zeros((2, 3)))


def test_qr_zero_matrix():
    q, r = householder_qr(np.zeros((4, 2)))
    assert np.allclose(r, 0.0)
    assert np.abs(q @ r).max() == 0.0


def test_qr_deterministic():
    a = random_matrix(12, 5, 9)
    q1, r1 = householder_qr(a)
    q2, r2 = householder_qr(a)
    assert np.array_equal(q1, q2)
    assert np.array_equal(r1, r2)


# ---------------------------------------------------------------- exact_svd


def test_exact_svd_diagonal():
    res = exact_svd(np.diag([3.0, 2.0, 1.0]), k=3)
    assert np.allclose(res.s, [3.0, 2.0, 1.0], atol=1e-12)


def test_exact_svd_zero_matrix():
    res = exact_svd(np.zeros((3, 3)), k=3)
    assert np.allclose(res.s, 0.0)


def test_exact_svd_recovers_constructed_factorization():
    u = orthonormal(6, 4, 1)
    v = orthonormal(4, 4, 2)
    s = np.array([5.0, 3.0, 1.0, 0.5])
    a = u @ np.diag(s) @ v.T
    res = exact_svd(a, k=4)
    assert np.abs(res.s - s).max() < 1e-8
    assert np.abs(res.u @ np.diag(res.s) @ res.vt - a).max() < 1e-8


def test_exact_svd_truncation_and_shapes():
    a = random_matrix(10, 6, 3)
    res = exact_svd(a, k=2)
    assert res.u.shape == (10, 2)
    assert res.s.shape == (2,)
    assert res.vt.shape == (2, 6)
    assert len(res.s) == 2
    full = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(res.s, full[:2], atol=1e-12)


def test_exact_svd_singular_values_sorted_nonnegative():
    for seed in range(5):
        res = exact_svd(random_matrix(9, 7, seed + 40), k=7)
        assert (res.s >= 0.0).all()
        assert (np.diff(res.s) <= 1e-12).all()


def test_exact_svd_sign_convention():
    for seed in range(5):
        res = exact_svd(random_matrix(8, 5, seed + 50), k=5)
        lead = np.abs(res.u).argmax(axis=0)
        assert (res.u[lead, np.arange(5)] > 0.0).all()


def test_fix_signs_flips_in_place_by_the_first_largest_magnitude():
    # Small integers tie often: |max| = |min| in a column, zero columns
    # and constant ones. The lead is the first entry of the largest
    # magnitude, as np.abs(u).argmax finds it.
    u = np.rint(random_matrix(7, 400, 90) * 1.2)
    u[:, :3] = [[0.0, -2.0, 2.0]]
    assert (u.max(axis=0) == -u.min(axis=0)).sum() > 50
    vt = random_matrix(400, 5, 91)
    signs = np.sign(u[np.abs(u).argmax(axis=0), np.arange(400)])
    signs[signs == 0] = 1.0
    expected = u * signs
    flipped, flipped_vt = fix_signs(u, vt)
    assert flipped is u
    assert np.array_equal(flipped, expected)
    assert np.array_equal(flipped_vt, vt * signs[:, None])
    assert np.array_equal(signs[:3], [1.0, -1.0, 1.0])


def test_exact_svd_k_validation():
    a = np.eye(4)
    with pytest.raises(ValueError):
        exact_svd(a, k=0)
    with pytest.raises(ValueError):
        exact_svd(a, k=5)


def test_exact_svd_reports_a_backend_failure_as_convergence_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(ConvergenceError, match="^SVD did not converge: SVD did not converge$"):
        exact_svd(np.eye(4), k=2)


def test_exact_svd_reconstruction_full_rank():
    a = random_matrix(7, 7, 8)
    res = exact_svd(a, k=7)
    err = np.linalg.norm(res.u @ np.diag(res.s) @ res.vt - a)
    assert err <= 1e-8 * np.linalg.norm(a)


# ------------------------------------------------- randomized_range_finder


def test_range_finder_exact_rank_two():
    # Rank-2 matrix, l=2, no power iterations: the sketch captures the
    # whole range up to round-off.
    a = np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 0.0, -1.0]) + np.outer(
        [0.0, 1.0, 0.0, 1.0], [2.0, 1.0, 1.0]
    )
    q = randomized_range_finder(a, l=2, power_iterations=0, seed=0)
    resid = np.linalg.norm(a - q @ (q.T @ a))
    assert resid <= 1e-8 * np.linalg.norm(a)


def test_range_finder_decaying_spectrum_near_optimal():
    # sigma_i = 10 * 0.5^i: with l=12 and q=2 the captured energy is
    # within 10x of the best possible rank-12 residual.
    m, n, r = 100, 60, 60
    s = 10.0 * 0.5 ** np.arange(r)
    a = orthonormal(m, r, 4) @ np.diag(s) @ orthonormal(n, r, 5).T
    q = randomized_range_finder(a, l=12, power_iterations=2, seed=0)
    resid = np.linalg.norm(a - q @ (q.T @ a))
    optimal = np.sqrt((np.linalg.svd(a, compute_uv=False)[12:] ** 2).sum())
    assert resid <= 10.0 * optimal


def test_range_finder_orthonormal_columns():
    a = random_matrix(30, 20, 6)
    q = randomized_range_finder(a, l=8, power_iterations=1, seed=3)
    assert q.shape == (30, 8)
    assert np.allclose(q.T @ q, np.eye(8), atol=1e-10)


def test_range_finder_deterministic():
    a = random_matrix(25, 15, 7)
    q1 = randomized_range_finder(a, l=6, power_iterations=2, seed=11)
    q2 = randomized_range_finder(a, l=6, power_iterations=2, seed=11)
    assert np.array_equal(q1, q2)


def test_range_finder_validation():
    a = random_matrix(10, 5, 1)
    with pytest.raises(ValueError):
        randomized_range_finder(a, l=0, power_iterations=0, seed=0)
    with pytest.raises(ValueError):
        randomized_range_finder(a, l=6, power_iterations=0, seed=0)
    with pytest.raises(ValueError, match="^power_iterations must be >= 0, got -1$"):
        randomized_range_finder(a, l=2, power_iterations=-1, seed=0)
    with pytest.raises(ValueError, match="^power_iterations must be an integer, got 1.5$"):
        randomized_range_finder(a, l=2, power_iterations=1.5, seed=0)


# ------------------------------------------------------------ randomized_svd


def test_rsvd_exact_on_low_rank():
    # Rank-3 matrix with k=3: randomized equals exact to near round-off.
    u = orthonormal(20, 3, 10)
    v = orthonormal(12, 3, 11)
    s = np.array([4.0, 2.0, 1.0])
    a = u @ np.diag(s) @ v.T
    res = randomized_svd(a, RandomizedSvdParams(k=3, oversampling=5, power_iterations=1, seed=0))
    assert np.abs(res.s - s).max() <= 1e-6 * s[0]
    assert np.linalg.norm(res.u @ np.diag(res.s) @ res.vt - a) <= 1e-6 * np.linalg.norm(a)


def test_rsvd_interlacing():
    # Projection can only shrink singular values.
    a = random_matrix(50, 30, 12)
    exact = exact_svd(a, k=10)
    approx = randomized_svd(a, RandomizedSvdParams(k=10, oversampling=8, power_iterations=2, seed=1))
    assert (approx.s <= exact.s * (1.0 + 1e-6)).all()


def test_rsvd_power_iterations_do_not_hurt():
    m, n = 60, 40
    s = 10.0 * 0.7 ** np.arange(n)
    a = orthonormal(m, n, 14) @ np.diag(s) @ orthonormal(n, n, 15).T

    def resid(q_iters):
        res = randomized_svd(a, RandomizedSvdParams(k=8, oversampling=6, power_iterations=q_iters, seed=2))
        return np.linalg.norm(a - res.u @ np.diag(res.s) @ res.vt)

    assert resid(2) <= resid(0) + 1e-9


def test_rsvd_matches_the_textbook_sketch_at_each_power_iteration_count():
    # sigma_i = 0.95^i decays slowly, so each power iteration moves the
    # estimates well past round-off: one iteration more or fewer than
    # asked cannot match the reference.
    m, n = 300, 100
    s = 0.95 ** np.arange(n)
    a = orthonormal(m, n, 40) @ np.diag(s) @ orthonormal(n, n, 41).T
    estimates = []
    for q_iters in (0, 1, 2):
        res = randomized_svd(
            a, RandomizedSvdParams(k=6, oversampling=4, power_iterations=q_iters, seed=7)
        )
        u, s_ref, vt = randomized_svd_reference(a, 6, 4, q_iters, seed=7)
        assert np.abs(res.s - s_ref).max() <= 1e-12
        assert np.abs(res.u - u).max() <= 1e-12
        assert np.abs(res.vt - vt).max() <= 1e-12
        estimates.append(res.s)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert np.abs(estimates[i] - estimates[j]).min() > 1e-6


def test_rsvd_deterministic_bit_identical():
    a = random_matrix(40, 25, 16)
    p = RandomizedSvdParams(k=6, oversampling=6, power_iterations=2, seed=9)
    r1 = randomized_svd(a, p)
    r2 = randomized_svd(a, p)
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.s, r2.s)
    assert np.array_equal(r1.vt, r2.vt)


def test_rsvd_seed_changes_sketch():
    a = random_matrix(40, 25, 17)
    r1 = randomized_svd(a, RandomizedSvdParams(k=6, oversampling=6, power_iterations=0, seed=0))
    r2 = randomized_svd(a, RandomizedSvdParams(k=6, oversampling=6, power_iterations=0, seed=1))
    assert not np.array_equal(r1.u, r2.u)


def test_rsvd_shapes_and_ordering():
    a = random_matrix(30, 22, 18)
    res = randomized_svd(a, RandomizedSvdParams(k=5, oversampling=5, power_iterations=1, seed=4))
    assert res.u.shape == (30, 5)
    assert res.vt.shape == (5, 22)
    assert (np.diff(res.s) <= 1e-12).all()
    assert np.allclose(res.u.T @ res.u, np.eye(5), atol=1e-10)
    assert np.allclose(res.vt @ res.vt.T, np.eye(5), atol=1e-10)


def test_rsvd_sign_convention():
    a = random_matrix(24, 16, 19)
    res = randomized_svd(a, RandomizedSvdParams(k=4, oversampling=4, power_iterations=1, seed=5))
    lead = np.abs(res.u).argmax(axis=0)
    assert (res.u[lead, np.arange(4)] > 0.0).all()


def test_rsvd_params_validation():
    # Each field is checked when the params are built ...
    for bad, message in (
        (dict(k=0), "k must be >= 1, got 0"),
        (dict(k=2, oversampling=-1), "oversampling must be >= 0, got -1"),
        (dict(k=2, power_iterations=-1), "power_iterations must be >= 0, got -1"),
        (dict(k=2, seed=1.5), "seed must be an integer, got 1.5"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RandomizedSvdParams(**bad)
    # ... and randomized_svd checks that the sketch fits the matrix.
    a = random_matrix(10, 8, 20)
    message = r"^4 components \+ 5 oversampling = 9 exceeds min\(rows, cols\) = min\(10, 8\) = 8$"
    with pytest.raises(ValueError, match=message):
        randomized_svd(a, RandomizedSvdParams(k=4, oversampling=5))

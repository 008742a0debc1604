"""Tests for exact and randomized PCA."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hsikit
from _oracles import decaying_test_matrices, jacobi_eigenvalues, pca_by_row_factorization
from hsikit.dimred import (
    _CENTER_BLOCK_BYTES,
    PcaModel,
    explained_variance_ratio,
    fit_pca,
    fit_rpca,
    fit_transform,
    principal_angles,
    transform,
)
from hsikit.errors import ConvergenceError, DegenerateDataError
from hsikit.linalg import RandomizedSvdParams, householder_qr
from hsikit.rng import SplitMix64


def random_matrix(m, n, seed):
    return SplitMix64(seed).normal_matrix(m, n)


def decaying_matrix(m, n, rank, ratio, seed):
    # Rows drawn from a distribution whose covariance spectrum decays
    # geometrically: G @ diag(ratio^i) @ H^T with H orthonormal.
    g = random_matrix(m, rank, seed)
    h, _ = householder_qr(random_matrix(n, rank, seed + 1))
    return g * ratio ** np.arange(rank) @ h.T


# ------------------------------------------------------------------ fit_pca


def test_fit_pca_two_point_axis():
    model = fit_pca([[-1.0, 0.0], [1.0, 0.0]], k=1)
    assert np.allclose(model.mean, [0.0, 0.0])
    comp = model.components[0] * np.sign(model.components[0, 0])
    assert np.allclose(comp, [1.0, 0.0], atol=1e-12)
    # Sample variance with the n-1 denominator: ((-1)^2 + 1^2) / 1 = 2.
    assert np.allclose(model.explained_variance, [2.0], atol=1e-12)
    assert model.method == "exact"
    assert model.n_fit_samples == 2


def test_fit_pca_variance_bounded_by_total():
    x = random_matrix(40, 8, 30)
    total = x.var(axis=0, ddof=1).sum()
    model = fit_pca(x, k=8)
    assert model.explained_variance.sum() <= total + 1e-9


def test_fit_pca_matches_covariance_eigenvalues():
    # Cross-check against an independent eigensolver (cyclic Jacobi),
    # itself verified on a closed-form case first.
    assert np.allclose(jacobi_eigenvalues([[2.0, 1.0], [1.0, 2.0]]), [3.0, 1.0], atol=1e-12)
    x = random_matrix(50, 10, 31)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigs = jacobi_eigenvalues(cov)
    model = fit_pca(x, k=10)
    assert np.abs(model.explained_variance - eigs).max() <= 1e-8 * max(eigs[0], 1.0)


def test_fit_pca_explained_variance_nonincreasing():
    model = fit_pca(random_matrix(30, 6, 32), k=6)
    assert (np.diff(model.explained_variance) <= 1e-12).all()
    assert (model.explained_variance >= 0.0).all()


def test_fit_pca_components_orthonormal():
    model = fit_pca(random_matrix(25, 7, 33), k=5)
    assert np.allclose(model.components @ model.components.T, np.eye(5), atol=1e-10)


def test_fit_pca_validation():
    with pytest.raises(DegenerateDataError):
        fit_pca([[1.0, 2.0]], k=1)
    with pytest.raises(ValueError):
        fit_pca(random_matrix(5, 3, 0), k=0)
    with pytest.raises(ValueError):
        fit_pca(random_matrix(5, 3, 0), k=4)


def test_fits_take_only_integer_sizes():
    # numpy would fit one component for True and fail on 2.0 with its
    # own TypeError; each size is checked and named.
    x = random_matrix(30, 20, 1)
    with pytest.raises(ValueError, match="k must be an integer, got True"):
        fit_pca(x, True)
    with pytest.raises(ValueError, match="k must be an integer, got 2.0"):
        fit_pca(x, 2.0)
    with pytest.raises(ValueError, match="oversampling must be an integer, got True"):
        fit_rpca(x, 2, oversampling=True)
    with pytest.raises(ValueError, match="power_iterations must be an integer, got 2.0"):
        fit_rpca(x, 2, power_iterations=2.0)
    # A string must not reach the size check's sum, where it raises TypeError.
    with pytest.raises(ValueError, match="oversampling must be an integer, got '3'"):
        fit_rpca(x, 2, oversampling="3")
    assert fit_rpca(x, np.int64(2), oversampling=np.int32(3)).method_params["oversampling"] == 3


def test_fit_pca_scaling_covariance():
    # Scaling the data by c scales eigenvalues by c^2 and keeps the
    # axes (up to sign).
    x = random_matrix(30, 5, 34)
    m1 = fit_pca(x, k=5)
    m2 = fit_pca(3.0 * x, k=5)
    assert np.allclose(m2.explained_variance, 9.0 * m1.explained_variance, rtol=1e-10)
    dots = np.abs((m1.components * m2.components).sum(axis=1))
    assert np.allclose(dots, 1.0, atol=1e-10)


# ----------------------------------------------------------------- fit_rpca


def test_fit_rpca_exact_on_low_rank():
    # Rank-2 data: randomized axes align with exact ones to round-off.
    x = decaying_matrix(60, 12, rank=2, ratio=0.5, seed=40)
    exact = fit_pca(x, k=2)
    rand = fit_rpca(x, k=2, oversampling=6, power_iterations=1, seed=0)
    angles = principal_angles(exact.components, rand.components)
    assert angles.max() <= 1e-6
    assert rand.method == "randomized"
    assert rand.method_params == {"seed": 0, "oversampling": 6, "power_iterations": 1}


def test_fit_rpca_angles_small_with_spectral_gap():
    # Gap ratio sigma_{k+1}/sigma_k <= 0.1 keeps the subspace within
    # 1e-3 radians of the exact one.
    m, b, k = 200, 30, 4
    s = np.ones(b)
    s[:k] = 100.0
    s[k:] *= 10.0 * 0.8 ** np.arange(b - k)
    g = random_matrix(m, b, 41)
    h, _ = householder_qr(random_matrix(b, b, 42))
    x = g * s @ h.T
    exact = fit_pca(x, k=k)
    rand = fit_rpca(x, k=k, oversampling=10, power_iterations=2, seed=0)
    assert principal_angles(exact.components, rand.components).max() <= 1e-3


def test_fit_rpca_variance_close_on_decaying_data():
    # Pixel-scale problem: n x B = 10249 x 200 with a geometric
    # spectrum; randomized eigenvalues within 2% of exact.
    x = decaying_matrix(10249, 200, rank=200, ratio=0.85, seed=43)
    exact = fit_pca(x, k=20)
    rand = fit_rpca(x, k=20, oversampling=10, power_iterations=2, seed=0)
    rel = np.abs(rand.explained_variance - exact.explained_variance) / exact.explained_variance
    assert rel.max() <= 0.02


def test_fit_rpca_deterministic():
    x = random_matrix(50, 12, 44)
    m1 = fit_rpca(x, k=4, oversampling=6, power_iterations=2, seed=7)
    m2 = fit_rpca(x, k=4, oversampling=6, power_iterations=2, seed=7)
    assert np.array_equal(m1.components, m2.components)
    assert np.array_equal(m1.explained_variance, m2.explained_variance)


def test_fit_rpca_sketch_budget_validation():
    x = random_matrix(20, 8, 45)
    message = (
        r"^3 components \+ 10 oversampling = 13 exceeds "
        r"min\(rows, cols\) = min\(20, 8\) = 8$"
    )
    with pytest.raises(ValueError, match=message):
        fit_rpca(x, k=3)
    # An explicit smaller sketch fits.
    model = fit_rpca(x, k=3, oversampling=5)
    assert model.components.shape[0] == 3


# ------------------------------------- against the n-row factorization


def test_fits_match_the_n_row_factorization():
    # Factoring the B x B factor S of A^T A gives, to round-off, what
    # factoring the centered pixel matrix A does: the same components
    # with the same signs and the same variances, for both methods.
    worst_components = worst_variance = 0.0
    for idx, x in decaying_test_matrices():
        params = RandomizedSvdParams(k=20, oversampling=10, power_iterations=2, seed=idx)
        for model, reference in (
            (fit_pca(x, 20), pca_by_row_factorization(x, 20)),
            (fit_rpca(x, 20, seed=idx), pca_by_row_factorization(x, 20, params)),
        ):
            components, variance = reference
            worst_components = max(worst_components, np.abs(model.components - components).max())
            rel = np.abs(model.explained_variance - variance) / variance
            worst_variance = max(worst_variance, rel.max())
    assert worst_components <= 1e-10
    assert worst_variance <= 1e-10


def _constant_band():
    x = random_matrix(40, 8, 70)
    x[:, 3] = 5.0
    return x


@pytest.mark.parametrize(
    "x, k, oversampling",
    [
        (_constant_band(), 8, 0),
        (random_matrix(6, 12, 71), 5, 1),
        (decaying_matrix(60, 12, rank=2, ratio=0.5, seed=72), 3, 4),
        (np.repeat(random_matrix(5, 7, 73), 4, axis=0), 6, 1),
    ],
    ids=["constant-band", "fewer-pixels-than-bands", "rank-2-k-3", "repeated-rows"],
)
def test_fits_stay_well_formed_on_degenerate_data(x, k, oversampling):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        models = [fit_pca(x, k), fit_rpca(x, k, oversampling=oversampling)]
    for model in models:
        c = model.components
        assert np.abs(c @ c.T - np.eye(len(c))).max() <= 1e-12
        v = model.explained_variance
        assert np.isfinite(v).all() and (v >= 0.0).all() and (np.diff(v) <= 0.0).all()


def test_fit_rejects_a_covariance_that_overflows():
    # Finite data whose band covariance overflows: an error, not
    # infinite variances written to model.json as JSON Infinity.
    x = random_matrix(200, 12, 74) * 1e200
    for fit in (fit_pca, fit_rpca):
        with pytest.raises(ConvergenceError, match="overflows float64"):
            fit(x, 2)


# ---------------------------------------------------------------- transform


@pytest.mark.parametrize("k", [1, 10, 20])
@pytest.mark.parametrize("method", ["exact", "randomized"])
def test_fit_transform_projects_the_fit_rows_once(method, k):
    # The fit's own scores, sign-corrected, are transform's bytes, so the
    # run need not project its training rows a second time.
    x = decaying_matrix(700, 40, 30, 0.8, seed=12) + 3.0
    fit = RandomizedSvdParams(k, oversampling=6, seed=4) if method == "randomized" else k
    model, scores = fit_transform(x, fit)
    assert scores.shape == (700, k)
    assert scores.tobytes() == transform(model, x).tobytes()
    if method == "exact":
        assert model.to_dict() == fit_pca(x, k).to_dict()
    else:
        assert model.to_dict() == fit_rpca(x, k, oversampling=6, seed=4).to_dict()


# A child process prints, for each band count, a digest of an exact and
# a randomized fit: the models' arrays and the scores.
_FIT_DIGESTS = """
import hashlib
import numpy as np
from hsikit.dimred import fit_transform
from hsikit.linalg import RandomizedSvdParams
from hsikit.rng import SplitMix64
for b in (8, 60, 103, 200):
    x = SplitMix64(b).normal_matrix(3000, b) * np.linspace(1.0, 3.0, b) + 5.0
    digest = hashlib.sha256()
    for fit in (5, RandomizedSvdParams(3, oversampling=4, seed=1)):
        model, scores = fit_transform(x, fit)
        for a in (model.mean, model.components, model.explained_variance, scores):
            digest.update(a.tobytes())
    print(b, digest.hexdigest())
"""


def test_fits_are_the_same_bytes_under_any_blas_thread_count():
    # The Gram is summed over blocks whose row count follows from B
    # alone, and each block's product is thread-invariant, so a fit's
    # model and scores do not depend on the BLAS thread count. One
    # n x B product (the whole Gram at once) differs at B = 103.
    src = str(Path(hsikit.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", _FIT_DIGESTS], env=env, check=True,
                              capture_output=True, text=True)
        outputs[threads] = done.stdout
    assert len(outputs["1"].splitlines()) == 4
    assert outputs["1"] == outputs["2"] == outputs["4"]


def _traced_peak(call) -> int:
    """Bytes ``call()`` allocates at its peak above what was allocated
    before it, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fit", [20, RandomizedSvdParams(20, seed=1)], ids=["exact", "randomized"])
def test_reduce_stage_holds_no_centered_copy(fit):
    # A fit and a projection center their rows a block at a time, so
    # above their input they hold the n x k result, one block buffer and
    # B x B matrices: well under the 15.7 MiB of a centered 20,000 x 103
    # copy. The margin covers the B x B matrices (about 0.3 MiB here).
    x = random_matrix(20_000, 103, 80) + 2.0
    model, scores = fit_transform(x, fit)
    bound = scores.nbytes + _CENTER_BLOCK_BYTES + 2**19
    assert _traced_peak(lambda: fit_transform(x, fit)) <= bound
    assert _traced_peak(lambda: transform(model, x)) <= bound


# Row counts that are not a multiple of the 32-row Gram block, and that
# span two or more center blocks and many of numpy's 8,192-value
# reduction buffers.
@pytest.mark.parametrize("n, b", [(40_007, 8), (3_001, 103), (1_501, 200)])
@pytest.mark.parametrize(
    "fit", [5, RandomizedSvdParams(5, oversampling=3, seed=2)], ids=["exact", "randomized"]
)
def test_float32_input_gives_the_bytes_of_its_float64_copy(n, b, fit):
    # The mean sums in float64 and each block upcasts into the float64
    # buffer exactly, so a fit and a projection read float32 samples as
    # they read their float64 copy.
    x32 = (random_matrix(n, b, seed=b) * 3.0 + 1.5).astype(np.float32)
    x64 = x32.astype(np.float64)
    assert n % 32 and n * b > 3 * 8192 and n * b * 8 > 2 * _CENTER_BLOCK_BYTES
    model32, scores32 = fit_transform(x32, fit)
    model64, scores64 = fit_transform(x64, fit)
    assert model32.to_dict() == model64.to_dict()
    assert scores32.tobytes() == scores64.tobytes()
    assert transform(model64, x32).tobytes() == transform(model64, x64).tobytes()


def test_exact_fits_factor_once(monkeypatch):
    # Exact PCA reads its axes and variances from the eigenpairs of the
    # band Gram matrix, so no SVD runs after them.
    x = decaying_matrix(200, 12, 10, 0.7, seed=13)
    expected = fit_pca(x, 5)

    def no_svd(*args, **kwargs):
        raise AssertionError("exact PCA ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert fit_pca(x, 5).to_dict() == expected.to_dict()
    model, scores = fit_transform(x, 5)
    assert model.to_dict() == expected.to_dict()
    assert scores.tobytes() == transform(model, x).tobytes()


def test_fit_transform_rejects_an_unknown_method():
    # What to fit is an integer k or a RandomizedSvdParams, nothing else.
    x = random_matrix(20, 5, seed=1)
    for fit in ("randomized", 2.0, True):
        with pytest.raises(ValueError, match="^k must be an integer"):
            fit_transform(x, fit)


def test_transform_mean_row_maps_to_origin():
    x = random_matrix(20, 6, 50)
    model = fit_pca(x, k=3)
    out = transform(model, model.mean[None, :])
    assert np.abs(out).max() < 1e-12


def test_transform_identity_model():
    model = PcaModel(
        mean=np.zeros(2),
        components=np.eye(2),
        explained_variance=np.ones(2),
        method="exact",
        n_fit_samples=2,
    )
    out = transform(model, [[3.0, 4.0]])
    assert np.allclose(out, [[3.0, 4.0]])


def test_transform_single_axis_projection():
    model = PcaModel(
        mean=np.zeros(2),
        components=np.array([[1.0, 0.0]]),
        explained_variance=np.array([1.0]),
        method="exact",
        n_fit_samples=2,
    )
    assert np.allclose(transform(model, [[3.0, 0.0]]), [[3.0]])


def test_transform_linearity():
    x = random_matrix(15, 5, 51)
    model = fit_pca(x, k=3)
    a = random_matrix(4, 5, 52)
    b = random_matrix(4, 5, 53)
    # The map is affine, so differences are linear in the input.
    lhs = transform(model, a) - transform(model, b)
    rhs = (a - b) @ model.components.T
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_transform_dimension_mismatch():
    model = fit_pca(random_matrix(10, 4, 54), k=2)
    with pytest.raises(ValueError, match="^x has 5 columns but the model was fit on 4$"):
        transform(model, np.zeros((3, 5)))


def test_transform_recovers_projected_variance():
    x = random_matrix(100, 8, 55)
    model = fit_pca(x, k=8)
    z = transform(model, x)
    assert np.allclose(z.var(axis=0, ddof=1), model.explained_variance, rtol=1e-8)


# ------------------------------------------------- explained_variance_ratio


def test_evr_single_component_all_variance():
    model = fit_pca([[-1.0, 0.0], [1.0, 0.0]], k=1)
    ratio = explained_variance_ratio(model, total_variance=2.0)
    assert np.allclose(ratio, [1.0], atol=1e-12)


def test_evr_isotropic_split():
    x = random_matrix(2000, 2, 56)
    model = fit_pca(x, k=1)
    total = x.var(axis=0, ddof=1).sum()
    ratio = explained_variance_ratio(model, total)
    assert abs(ratio[0] - 0.5) < 0.05


def test_evr_sums_at_most_one():
    x = random_matrix(60, 9, 57)
    model = fit_pca(x, k=5)
    total = x.var(axis=0, ddof=1).sum()
    assert explained_variance_ratio(model, total).sum() <= 1.0 + 1e-9


def test_evr_rejects_nonpositive_total():
    model = fit_pca(random_matrix(10, 3, 58), k=2)
    with pytest.raises(ValueError):
        explained_variance_ratio(model, 0.0)


# ----------------------------------------------------------- principal_angles


def test_principal_angles_identical_spans():
    model = fit_pca(random_matrix(20, 6, 60), k=3)
    angles = principal_angles(model.components, model.components)
    assert np.abs(angles).max() < 1e-7


def test_principal_angles_orthogonal_spans():
    a = np.array([[1.0, 0.0, 0.0]])
    b = np.array([[0.0, 1.0, 0.0]])
    assert np.allclose(principal_angles(a, b), [np.pi / 2], atol=1e-12)


def test_principal_angles_known_rotation():
    t = 0.3
    a = np.array([[1.0, 0.0]])
    b = np.array([[np.cos(t), np.sin(t)]])
    assert np.allclose(principal_angles(a, b), [t], atol=1e-12)


def test_principal_angles_shape_mismatch():
    with pytest.raises(ValueError):
        principal_angles(np.eye(2), np.eye(3))


# -------------------------------------------------------------- round-trip


def test_model_dict_round_trip():
    x = random_matrix(30, 7, 61)
    model = fit_rpca(x, k=3, oversampling=4, power_iterations=1, seed=5)
    back = PcaModel.from_dict(model.to_dict())
    assert np.array_equal(back.mean, model.mean)
    assert np.array_equal(back.components, model.components)
    assert np.array_equal(back.explained_variance, model.explained_variance)
    assert back.method == model.method
    assert back.method_params == model.method_params
    assert back.n_fit_samples == model.n_fit_samples
    assert back.to_dict() == model.to_dict()
    assert back.components.dtype == np.float64


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("mean", ["0", "1", "2"], "mean must hold integers or floats, got dtype <U1"),
        ("explained_variance", [1.0, np.nan], "explained_variance contains non-finite values"),
        ("components", [[True] * 3] * 2, "components must hold integers or floats, got dtype bool"),
    ],
    ids=["strings", "nan", "bools"],
)
def test_model_dict_rejects_arrays_that_are_not_real_numbers(name, value, message):
    # numpy would read the strings and the bools as floats.
    d = fit_pca(random_matrix(10, 3, 63), k=2).to_dict()
    d[name] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        PcaModel.from_dict(d)


def test_model_dict_rejects_unknown_schema():
    model = fit_pca(random_matrix(10, 3, 62), k=2)
    d = model.to_dict()
    d["schema"] = "hsikit/pca-model/999"
    with pytest.raises(ValueError):
        PcaModel.from_dict(d)

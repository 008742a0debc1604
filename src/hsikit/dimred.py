"""Exact and randomized PCA over pixel-by-band matrices.

Fitting centers the data by column means and takes the top right
singular vectors of the centered matrix; the randomized variant swaps
the exact factorization for :func:`hsikit.linalg.randomized_svd` and is
otherwise identical. Models are immutable after fit and record how they
were produced.

Neither fit factors the n x B centered matrix A itself. Both form the
band Gram matrix G = A^T A (B x B, one pass over the data), take its
eigenpairs (lambda_i, v_i) in descending order and factor the B x B
matrix S whose row i is sqrt(lambda_i) v_i^T. Since
S^T S = A^T A, A = O S for some O with orthonormal columns. So A and S
share their singular values and right singular vectors, and every
product the randomized range finder takes with A or A^T equals one
with S or S^T up to O: the same seed and power iterations give the
same singular values and axes in exact arithmetic. Every factorization
then runs on B-sized matrices. Squaring A costs precision at the bottom
of the spectrum: variances below about eps * lambda_1 (eps = 2.2e-16)
come out as rounding noise or zero, and their axes are not resolved.

Signs are fixed on the data's own scores A @ components^T: the
largest-magnitude entry of each column is made positive. For exact PCA
the scores are U diag(s), so this is the rule ``exact_svd`` applies to
A. Randomized SVD of A applies it to the sketch's estimate of U
instead; the two agree wherever the sketch resolves the component.

Only centering is applied, never per-band standardization: spectral
bands share units, so PCA on the covariance matrix is the intended
behavior. Pre-scale the input yourself if you want correlation-matrix
PCA.
"""

from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .errors import ConvergenceError, DegenerateDataError
from .linalg import RandomizedSvdParams, as_matrix, exact_svd, randomized_svd
from .records import Record

__all__ = [
    "PcaModel",
    "fit_pca",
    "fit_rpca",
    "fit_transform",
    "transform",
    "explained_variance_ratio",
    "principal_angles",
]


@dataclass(frozen=True)
class PcaModel(Record):
    """Fitted reduction: per-band mean, orthonormal principal axes
    (rows of ``components``), and per-axis explained variance.

    ``method`` is "exact" or "randomized"; for the randomized method
    ``method_params`` records seed, oversampling and power_iterations.
    """

    SCHEMA = "hsikit/pca-model/1"

    mean: Annotated[np.ndarray, np.float64]
    components: Annotated[np.ndarray, np.float64]
    explained_variance: Annotated[np.ndarray, np.float64]
    method: str
    n_fit_samples: int
    method_params: dict = field(default_factory=dict)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def n_features(self) -> int:
        return self.components.shape[1]


def _fit(x, k: int, method: str, factor, **method_params) -> tuple[PcaModel, np.ndarray]:
    """Center the rows of ``x``, factor the B x B factor S of their
    Gram matrix (see the module docstring) with ``factor(S)`` and
    record the top ``k`` axes as a model made by ``method``. Returns the
    model and the rows' signed scores, ``transform(model, x)``."""
    x = as_matrix(x, "x")
    n, b = x.shape
    if n < 2:
        raise DegenerateDataError(f"PCA needs at least 2 samples, got {n}")
    if not 1 <= k <= min(n, b):
        raise ValueError(f"k must satisfy 1 <= k <= min(n, B) = {min(n, b)}, got {k}")
    # The randomized sketch has k + oversampling columns; exact PCA has none extra.
    oversampling = method_params.get("oversampling", 0)
    if k + oversampling > min(n, b):
        raise ValueError(
            f"{k} components + {oversampling} oversampling = {k + oversampling} exceeds "
            f"min(pixels, bands) = min({n}, {b}) = {min(n, b)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the result
        mean = x.mean(axis=0)
        centered = x - mean
        gram = centered.T @ centered
    if not np.isfinite(gram).all():
        raise ConvergenceError("the band covariance overflows float64; rescale the data")
    eigenvalues, eigenvectors = np.linalg.eigh(gram)  # ascending: S takes them reversed
    svd = factor(np.sqrt(np.maximum(eigenvalues[::-1], 0.0))[:, None] * eigenvectors[:, ::-1].T)
    # The largest-magnitude score along each axis is made positive.
    scores = centered @ svd.vt.T
    signs = np.sign(scores[np.abs(scores).argmax(axis=0), np.arange(k)])
    signs[signs == 0] = 1.0
    model = PcaModel(
        mean=mean,
        components=svd.vt * signs[:, None],
        explained_variance=svd.s**2 / (n - 1),
        method=method,
        n_fit_samples=n,
        method_params=method_params,
    )
    # A sign flip is exact, so these are transform(model, x)'s bytes.
    return model, scores * signs


def fit_transform(x, k: int, method: str = "exact", **sketch) -> tuple[PcaModel, np.ndarray]:
    """Fit PCA with ``k`` components on rows of ``x`` (n x B) and project
    them: returns the model and ``transform(model, x)``, the n x k scores
    the fit computes anyway, so the rows are projected once.

    ``method`` "exact" fits as :func:`fit_pca`; "randomized" fits as
    :func:`fit_rpca`, with its ``oversampling``, ``power_iterations``
    and ``seed`` keywords as ``sketch``.
    """
    if method == "exact" and not sketch:
        return _fit(x, k, method, lambda s: exact_svd(s, k))
    if method != "randomized":
        raise ValueError(f"method must be 'exact' (no sketch) or 'randomized', got {method!r}")
    params = RandomizedSvdParams(k=k, **sketch)
    return _fit(
        x,
        k,
        method,
        lambda s: randomized_svd(s, params),
        seed=params.seed,
        oversampling=params.oversampling,
        power_iterations=params.power_iterations,
    )


def fit_pca(x, k: int) -> PcaModel:
    """Fit exact PCA with ``k`` components on rows of ``x`` (n x B).

    explained_variance[i] is s_i^2 / (n - 1), the sample-covariance
    eigenvalue along component i.
    """
    return fit_transform(x, k)[0]


def fit_rpca(
    x,
    k: int,
    oversampling: int = RandomizedSvdParams.oversampling,
    power_iterations: int = RandomizedSvdParams.power_iterations,
    seed: int = 0,
) -> PcaModel:
    """Fit PCA like :func:`fit_pca` but factor with the randomized SVD;
    the sketch settings are recorded in the model. The sketch's
    ``k + oversampling`` columns must not exceed min(pixels, bands)."""
    return fit_transform(
        x, k, "randomized", oversampling=oversampling, power_iterations=power_iterations, seed=seed
    )[0]


def transform(model: PcaModel, x) -> np.ndarray:
    """Project rows of ``x`` (m x B) onto the model's components: the
    result is (x - mean) @ components^T, shape m x k."""
    x = as_matrix(x, "x", cols=model.n_features)
    return (x - model.mean) @ model.components.T


def explained_variance_ratio(model: PcaModel, total_variance: float) -> np.ndarray:
    """Per-component share of ``total_variance`` (trace of the sample
    covariance matrix of the fit data)."""
    if not total_variance > 0:
        raise ValueError(f"total_variance must be > 0, got {total_variance}")
    return model.explained_variance / total_variance


def principal_angles(components_a: np.ndarray, components_b: np.ndarray) -> np.ndarray:
    """Principal angles (radians, ascending) between the row spans of
    two orthonormal component matrices of equal rank."""
    a = as_matrix(components_a, "components_a")
    b = as_matrix(components_b, "components_b")
    if a.shape != b.shape:
        raise ValueError(f"component shapes differ: {a.shape} vs {b.shape}")
    cosines = np.linalg.svd(a @ b.T, compute_uv=False)
    return np.arccos(np.clip(cosines, -1.0, 1.0))[::-1]

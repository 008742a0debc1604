"""Exact and randomized PCA over pixel-by-band matrices.

Fitting centers the data by column means and takes the top right
singular vectors of the centered n x B matrix A, and its squared
singular values over n - 1 as the explained variances. Models are
immutable after fit and record how they were produced.

Neither fit factors A itself, nor holds it. Both form the band Gram
matrix G = A^T A (B x B) in one pass over the data, as a running sum of
blk^T @ blk over blocks of ``_GRAM_ROWS`` = 32 centered rows, and take
its eigenpairs (lambda_i, v_i) in descending order. These are A's
singular pairs: s_i = sqrt(lambda_i), and v_i is the right singular
vector. Exact PCA reads its top k axes and variances straight from
them, so no SVD runs.

Randomized PCA runs :func:`hsikit.linalg.randomized_svd` on the B x B
matrix S whose row i is sqrt(lambda_i) v_i^T. Since S^T S = A^T A,
A = O S for some O with orthonormal columns. So A and S share their
singular values and right singular vectors, and every product the
randomized range finder takes with A or A^T equals one with S or S^T
up to O: the same seed and power iterations give the same singular
values and axes as a sketch of A, in exact arithmetic, at B-sized cost.

Squaring A costs precision at the bottom of the spectrum: variances
below about eps * lambda_1 (eps = 2.2e-16) come out as rounding noise
or zero, and their axes are not resolved.

Rows are centered into one reused buffer of ``_CENTER_BLOCK_BYTES``
(1 MiB), as many whole Gram blocks at a time as it holds, and each
projection writes block @ components^T into its preallocated m x k
result, so neither a fit nor :func:`transform` holds a centered copy of
its input. Both block sizes follow from B alone, never from the CPU or
BLAS thread count, and OpenBLAS sums a 32-row product the same way
under 1, 2 or 4 threads, so a fit's bytes do not depend on the thread
count either.

Both fits fix signs with :func:`hsikit.linalg.fix_signs` on the data's
own scores A @ components^T, in place: the largest-magnitude entry of
each column is made positive. For exact PCA the scores are U diag(s),
so this is the rule ``exact_svd`` applies to A. Randomized SVD of A
applies it to the sketch's estimate of U instead; the two agree
wherever the sketch resolves the component.

The input may be float32, as ``load_split`` reads a cube's samples, or
float64. The mean is summed in float64, and each block is centered into
the float64 buffer, which upcasts every value exactly; so float32 input
gives the same bytes as its float64 copy, and is never copied whole.

Only centering is applied, never per-band standardization: spectral
bands share units, so PCA on the covariance matrix is the intended
behavior. Pre-scale the input yourself if you want correlation-matrix
PCA.
"""

from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .errors import ConvergenceError, DegenerateDataError
from .linalg import RandomizedSvdParams, as_matrix, fix_signs, randomized_svd
from .records import Record, check_int

# Unused here: hsibench/pipeline.py wraps it by name until ROADMAP item 1, step 3.
from .linalg import exact_svd  # noqa: F401

# Memory for the rows a fit or a projection centers at a time: 2^17
# float64, reused block after block.
_CENTER_BLOCK_BYTES = 2**20
# Rows per product of the band Gram. OpenBLAS 0.3.31 sums blk^T @ blk of
# up to 32 rows the same way under 1, 2 and 4 threads (at B = 8 to 200);
# 48 or 64 rows are not thread-invariant at B = 103.
_GRAM_ROWS = 32

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
    def n_features(self) -> int:
        return self.components.shape[1]


def fit_transform(x, fit: int | RandomizedSvdParams) -> tuple[PcaModel, np.ndarray]:
    """Fit PCA on rows of ``x`` (n x B) and project them: returns the
    model and ``transform(model, x)``, the n x k scores the fit computes
    anyway, so the rows are projected once.

    ``fit`` says what to fit. An integer ``k`` fits exact PCA with k
    components, as :func:`fit_pca`. A :class:`RandomizedSvdParams` fits
    randomized PCA with its ``k``, oversampling, power iterations and
    seed, as :func:`fit_rpca`; the model records all but ``k`` in
    ``method_params``. Anything else raises ValueError naming ``k``.
    """
    k, method, method_params = fit, "exact", {}
    if isinstance(fit, RandomizedSvdParams):
        method, method_params = "randomized", fit.to_dict()
        k = method_params.pop("k")
    check_int(k, "k")
    x = as_matrix(x, "x", keep_float32=True)
    n, b = x.shape
    if n < 2:
        raise DegenerateDataError(f"PCA needs at least 2 samples, got {n}")
    if not 1 <= k <= min(n, b):
        raise ValueError(f"k must satisfy 1 <= k <= min(n, B) = {min(n, b)}, got {k}")
    if method == "randomized":
        fit.validate(n, b)
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the result
        mean = x.mean(axis=0, dtype=np.float64)
        gram = _gram(x, mean)
    if not np.isfinite(gram).all():
        raise ConvergenceError("the band covariance overflows float64; rescale the data")
    eigenvalues, eigenvectors = np.linalg.eigh(gram)  # ascending
    s = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    # C order, so the fit's scores and transform's product take one BLAS path.
    vt = np.ascontiguousarray(eigenvectors[:, ::-1].T)
    if method == "randomized":
        svd = randomized_svd(s[:, None] * vt, fit)
        s, vt = svd.s, svd.vt
    # The scores are transform(model, x)'s bytes: a sign flip is exact.
    scores, components = fix_signs(_project(x, mean, vt[:k]), vt[:k])
    model = PcaModel(
        mean=mean,
        components=components,
        explained_variance=s[:k] ** 2 / (n - 1),
        method=method,
        n_fit_samples=n,
        method_params=method_params,
    )
    return model, scores


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
    seed: int = RandomizedSvdParams.seed,
) -> PcaModel:
    """Fit PCA like :func:`fit_pca` but factor with the randomized SVD
    of one ``RandomizedSvdParams``, whose defaults these are; the model
    records its sketch settings. The sketch's ``k + oversampling``
    columns must not exceed min(pixels, bands)."""
    return fit_transform(x, RandomizedSvdParams(k, oversampling, power_iterations, seed))[0]


def transform(model: PcaModel, x) -> np.ndarray:
    """Project rows of ``x`` (m x B) onto the model's components: the
    result is (x - mean) @ components^T, shape m x k."""
    x = as_matrix(x, "x", cols=model.n_features, keep_float32=True)
    return _project(x, model.mean, model.components)


def _gram(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """A^T A for A = x - mean, summed over blocks of ``_GRAM_ROWS`` rows."""
    gram = np.zeros((x.shape[1],) * 2)
    for _, block in _centered_blocks(x, mean):
        for start in range(0, len(block), _GRAM_ROWS):
            part = block[start : start + _GRAM_ROWS]
            gram += part.T @ part
    return gram


def _centered_blocks(x: np.ndarray, mean: np.ndarray):
    """Yield (start, rows start.. of ``x`` minus ``mean``) for blocks of
    as many whole Gram blocks as ``_CENTER_BLOCK_BYTES`` holds, at least
    one; every block is a view of one reused buffer."""
    n, b = x.shape
    rows = _GRAM_ROWS * max(1, _CENTER_BLOCK_BYTES // (8 * _GRAM_ROWS * b))
    buffer = np.empty((min(rows, n), b))
    for start in range(0, n, rows):
        block = buffer[: min(rows, n - start)]
        np.subtract(x[start : start + rows], mean, out=block)
        yield start, block


def _project(x: np.ndarray, mean: np.ndarray, components: np.ndarray) -> np.ndarray:
    """(x - mean) @ components^T, written block by block into the result."""
    out = np.empty((len(x), len(components)))
    for start, block in _centered_blocks(x, mean):
        np.matmul(block, components.T, out=out[start : start + len(block)])
    return out


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

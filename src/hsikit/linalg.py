"""Dense linear-algebra kernels: Householder QR, truncated exact SVD,
and the randomized range finder / randomized SVD used for fast PCA.

Matrices are plain two-dimensional float64 numpy arrays; every public
entry point runs them through :func:`as_matrix`, the toolkit's one gate
for real-valued matrices. It applies ``records.real_array``, the rule
every real-valued array follows (integers or floats only, so no bools,
strings or complex values, and no NaN or infinity), and rejects
anything that is not 2-D.

The randomized scheme is the standard Gaussian-sketch prototype:
multiply by a seeded Gaussian test matrix, orthonormalize, optionally
sharpen with power iterations (re-orthonormalizing after every
application of A or A^T), then factor the small projected matrix
exactly. Results are deterministic functions of (matrix, params, seed).
Its settings, ``RandomizedSvdParams``, are checked when they are built;
``randomized_svd`` adds only the check that the sketch fits the matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .records import Record, check_int, real_array
from .rng import SplitMix64

__all__ = [
    "as_matrix",
    "householder_qr",
    "exact_svd",
    "fix_signs",
    "randomized_range_finder",
    "randomized_svd",
    "SvdResult",
    "RandomizedSvdParams",
]


def as_matrix(a, name: str = "a", cols: int | None = None) -> np.ndarray:
    """Validate and convert ``a`` to a 2-D float64 C-ordered array.

    Rejects entries that are not integers or floats or not finite
    (``records.real_array``) and non-2-D input, each with a ValueError
    naming ``name``. A fitted model passes its width as ``cols``, and
    any other column count is rejected.
    """
    out = real_array(a, np.float64, name)
    if out.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={out.ndim}")
    if cols is not None and out.shape[1] != cols:
        raise ValueError(f"{name} has {out.shape[1]} columns but the model was fit on {cols}")
    return out


@dataclass(frozen=True)
class SvdResult:
    """Top-r singular triplets: ``u @ diag(s) @ vt`` approximates A.

    ``u`` is m x r with orthonormal columns, ``s`` non-negative and
    non-increasing, ``vt`` r x n with orthonormal rows.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


@dataclass(frozen=True)
class RandomizedSvdParams(Record):
    """Sketch configuration: target rank ``k``, extra sketch columns
    ``oversampling``, ``power_iterations`` passes of A A^T, and the
    stream seed. Each field is checked when the object is built, so an
    invalid one cannot exist; :meth:`validate` checks only that the
    sketch fits a matrix of the given size."""

    k: int
    oversampling: int = 10
    power_iterations: int = 2
    seed: int = 0

    def __post_init__(self):
        check_int(self.k, "k", 1)
        check_int(self.oversampling, "oversampling", 0)
        check_int(self.power_iterations, "power_iterations", 0)
        check_int(self.seed, "seed")

    def validate(self, rows: int, cols: int):
        if self.k + self.oversampling > min(rows, cols):
            raise ValueError(
                f"{self.k} components + {self.oversampling} oversampling = "
                f"{self.k + self.oversampling} exceeds "
                f"min(rows, cols) = min({rows}, {cols}) = {min(rows, cols)}"
            )


def householder_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of a tall matrix by Householder reflections.

    Requires rows >= cols. Returns (Q, R) with Q m x n orthonormal
    columns and R n x n upper triangular. The factorization is LAPACK's
    Householder QR (``geqrf``/``orgqr``) via numpy; R's diagonal may be
    negative. A zero (or already reduced) column yields no reflection and
    a zero diagonal entry of R; the rest of that row holds the later
    columns' components as usual. Rank-deficient input is not an error.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"householder_qr requires rows >= cols, got {m} x {n}")
    return np.linalg.qr(a)


def fix_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``u`` and ``vt`` with each pair (column i of ``u``, row i of
    ``vt``) flipped so that the column's largest-magnitude entry, the
    first one if several tie, is positive; a zero column keeps its sign.
    The one sign convention of every factorization here, so their
    results compare entry by entry. ``u`` is flipped in place and
    returned, so the rule allocates nothing of its size."""
    # The sign of max + min is the sign of the larger extreme in magnitude.
    signs = np.sign(u.max(axis=0) + u.min(axis=0))
    for i in np.flatnonzero(signs == 0):  # |max| = |min|: the earlier leads
        signs[i] = -1.0 if u[:, i].argmin() < u[:, i].argmax() else 1.0
    u *= signs
    return u, vt * signs[:, None]


def exact_svd(a, k: int) -> SvdResult:
    """Top-k singular triplets of ``a`` by a full dense SVD.

    The factorization itself is delegated to LAPACK via numpy; this
    wrapper owns validation, truncation, and the deterministic sign
    convention. Raises ConvergenceError if the backend fails to
    converge (rare, but possible for pathological input).
    """
    a = as_matrix(a)
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must satisfy 1 <= k <= min(m, n) = {min(m, n)}, got {k}")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    u, s, vt = u[:, :k], s[:k], vt[:k, :]
    u, vt = fix_signs(u, vt)
    return SvdResult(u=u, s=s, vt=vt)


def randomized_range_finder(a, l: int, power_iterations: int, seed: int) -> np.ndarray:
    """Orthonormal m x l basis Q approximately spanning the range of A.

    Draws a seeded Gaussian test matrix, forms Y = A @ Omega, and
    orthonormalizes; each power iteration applies A^T then A with a QR
    re-orthonormalization after every multiply, which keeps the basis
    well conditioned when the spectrum decays slowly.
    """
    a = as_matrix(a)
    m, n = a.shape
    if not 1 <= l <= min(m, n):
        raise ValueError(f"l must satisfy 1 <= l <= min(m, n) = {min(m, n)}, got {l}")
    check_int(power_iterations, "power_iterations", 0)
    omega = SplitMix64(seed).normal_matrix(n, l)
    q, _ = householder_qr(a @ omega)
    for _ in range(power_iterations):
        z, _ = householder_qr(a.T @ q)
        q, _ = householder_qr(a @ z)
    return q


def randomized_svd(a, params: RandomizedSvdParams) -> SvdResult:
    """Approximate top-k SVD via the randomized range finder.

    Stage A sketches an orthonormal basis Q with k + oversampling
    columns; stage B factors B = Q^T A exactly and lifts the left
    factor back through Q. Singular value estimates never exceed the
    exact ones (projection can only shrink singular values).
    """
    a = as_matrix(a)
    m, n = a.shape
    params.validate(m, n)
    l = params.k + params.oversampling
    q = randomized_range_finder(a, l, params.power_iterations, params.seed)
    b = q.T @ a
    inner = exact_svd(b, params.k)
    u = q @ inner.u
    u, vt = fix_signs(u, inner.vt)
    return SvdResult(u=u, s=inner.s.copy(), vt=vt)

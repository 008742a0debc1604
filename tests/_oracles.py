"""Independent oracles used by the test suite.

Everything here recomputes results through a different route than the
library (brute force, enumeration, classic textbook algorithms), so a
test that compares against these is a genuine two-route check.
"""

import numpy as np

from hsikit.linalg import exact_svd, householder_qr, randomized_svd
from hsikit.rng import SplitMix64


# --- SVM dual oracles ----------------------------------------------------


def dual_objective(alpha, q_matrix):
    """Maximization form of the SVM dual: sum(a) - 0.5 a'Qa."""
    return float(alpha.sum() - 0.5 * alpha @ q_matrix @ alpha)


def rbf_cross(a, b, gamma, sq_a=None):
    """Kernel matrix K[i, j] = exp(-gamma * ||a_i - b_j||^2), formed whole.

    The unblocked reference for ``BinarySvm.decision``, which forms the
    same matrix in blocks of rows. ``sq_a`` is ``(a * a).sum(axis=1)``,
    computed here when not given.
    """
    if sq_a is None:
        sq_a = (a * a).sum(axis=1)
    sq_b = (b * b).sum(axis=1)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-gamma * d2)


def rbf_gram(x, gamma):
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * x @ x.T
    return np.exp(-gamma * np.maximum(d2, 0.0))


def lattice_dual_max(q_matrix, y, c, coarse=12, levels=24, window=4):
    """Brute-force lattice maximizer of the dual over the alpha box.

    Starts from a global lattice with spacing c/coarse restricted to
    the equality constraint (checked exactly in integer grid steps),
    then repeatedly halves the spacing and searches an offset window
    around the incumbent. The dual is concave, so the zoom converges
    to the constrained optimum.
    """
    n = len(y)
    y_int = np.where(y > 0, 1, -1).astype(np.int64)

    steps = np.arange(coarse + 1, dtype=np.int16)
    grid = np.stack(np.meshgrid(*([steps] * n), indexing="ij"), axis=-1).reshape(-1, n)
    feasible = grid[(grid @ y_int) == 0]
    h = c / coarse
    alpha = feasible * h
    values = alpha.sum(axis=1) - 0.5 * np.einsum("ij,jk,ik->i", alpha, q_matrix, alpha)
    best_idx = int(np.argmax(values))
    best_alpha = alpha[best_idx]
    best_value = float(values[best_idx])

    offs = np.arange(-window, window + 1, dtype=np.int64)
    offsets = np.stack(np.meshgrid(*([offs] * n), indexing="ij"), axis=-1).reshape(-1, n)
    offsets = offsets[(offsets @ y_int) == 0]
    for level in range(1, levels + 1):
        step = h / 2.0**level
        cand = best_alpha[None, :] + offsets * step
        ok = np.all((cand >= -1e-15) & (cand <= c + 1e-15), axis=1)
        cand = np.clip(cand[ok], 0.0, c)
        vals = cand.sum(axis=1) - 0.5 * np.einsum("ij,jk,ik->i", cand, q_matrix, cand)
        idx = int(np.argmax(vals))
        if vals[idx] > best_value:
            best_value = float(vals[idx])
            best_alpha = cand[idx]
    return best_value, best_alpha


def active_set_dual_max(q_matrix, y, c):
    """Exact dual optimum by enumerating active sets.

    For every assignment of variables to {at 0, at C, free}, solves the
    equality-constrained stationarity system on the free variables and
    keeps the best feasible candidate. With a positive-definite Q the
    optimal pattern's solve recovers the exact optimum.
    """
    n = len(y)
    best = None
    for pattern in range(3**n):
        digits = []
        p = pattern
        for _ in range(n):
            digits.append(p % 3)
            p //= 3
        digits = np.array(digits)
        alpha = np.zeros(n)
        alpha[digits == 1] = c
        free = digits == 2
        rhs_eq = -float(y[~free] @ alpha[~free])
        if not free.any():
            if abs(rhs_eq) > 1e-12 * max(c, 1.0):
                continue
            cand = alpha
        else:
            nf = int(free.sum())
            kkt = np.zeros((nf + 1, nf + 1))
            kkt[:nf, :nf] = q_matrix[np.ix_(free, free)]
            kkt[:nf, nf] = y[free]
            kkt[nf, :nf] = y[free]
            rhs = np.zeros(nf + 1)
            rhs[:nf] = 1.0 - q_matrix[np.ix_(free, ~free)] @ alpha[~free]
            rhs[nf] = rhs_eq
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            af = sol[:nf]
            if np.any(af < -1e-9) or np.any(af > c + 1e-9):
                continue
            cand = alpha.copy()
            cand[free] = np.clip(af, 0.0, c)
            if abs(float(y @ cand)) > 1e-8 * max(c, 1.0):
                continue
        value = dual_objective(cand, q_matrix)
        if best is None or value > best:
            best = value
    return best


def smo_reference(x, y, params):
    """The SMO loop as first written: one ``score`` array, selection by
    ``np.where`` masks each step and numpy scalars throughout.

    Returns what ``_smo_solve`` returns. Each kernel column is computed
    afresh when a step reads it (no cache), with the library's formula,
    so the library's solver must match this one bit for bit whatever its
    cache budget.
    """
    n = len(y)
    c = params.c
    sq = (x * x).sum(axis=1)

    def col(i):
        d2 = sq + sq[i] - 2.0 * (x @ x[i])
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-params.gamma * d2)

    alpha = np.zeros(n)
    score = np.array(y, dtype=np.float64)  # -y * gradient; the gradient is -1 at alpha = 0
    pos = y > 0
    up = pos.copy()
    low = ~pos
    n_iter = 0
    while True:
        i = int(np.argmax(np.where(up, score, -np.inf)))
        j = int(np.argmin(np.where(low, score, np.inf)))
        violation = score[i] - score[j]
        if violation <= params.tolerance or n_iter == params.max_iter:
            break
        ki = col(i)
        kj = col(j)
        quad = ki[i] + kj[j] - 2.0 * ki[j]
        step = violation / max(quad, 1e-12)
        cap_i = (c - alpha[i]) if pos[i] else alpha[i]
        cap_j = alpha[j] if pos[j] else (c - alpha[j])
        step = min(step, cap_i, cap_j)
        if step == cap_i:
            alpha[i] = c if pos[i] else 0.0
        else:
            alpha[i] = min(max(alpha[i] + y[i] * step, 0.0), c)
        if step == cap_j:
            alpha[j] = 0.0 if pos[j] else c
        else:
            alpha[j] = min(max(alpha[j] - y[j] * step, 0.0), c)
        score -= step * (ki - kj)
        for k in (i, j):
            up[k] = alpha[k] < c if pos[k] else alpha[k] > 0.0
            low[k] = alpha[k] > 0.0 if pos[k] else alpha[k] < c
        n_iter += 1
    # Bias: mean score over the free vectors (those in both up and low),
    # else the midpoint of the final maximal violating pair.
    free = up & low
    bias = score[free].mean() if free.any() else (score[i] + score[j]) / 2.0
    return alpha, float(bias), n_iter, violation <= params.tolerance, violation


# --- symmetric eigenvalues by cyclic Jacobi ------------------------------


def jacobi_eigenvalues(sym, max_sweeps=100):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations,
    sorted in non-increasing order."""
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    scale = max(1.0, np.abs(a).max())
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off <= 1e-14 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                if theta >= 0:
                    t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + np.sqrt(theta * theta + 1.0))
                cs = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * cs
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = cs * row_p - sn * row_q
                a[q, :] = sn * row_p + cs * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = cs * col_p - sn * col_q
                a[:, q] = sn * col_p + cs * col_q
    return np.sort(np.diag(a))[::-1]


# --- PCA by factoring the centered pixel matrix itself -------------------


def decaying_test_matrices(count=20, m=500, n=200):
    """(index, matrix) pairs: deterministic m x n matrices with singular
    values 10 * 0.8^i, the inputs of acceptance criteria 1 and 2."""
    s = 10.0 * 0.8 ** np.arange(n)
    for idx in range(count):
        u, _ = householder_qr(SplitMix64(2000 + idx).normal_matrix(m, n))
        v, _ = householder_qr(SplitMix64(3000 + idx).normal_matrix(n, n))
        yield idx, u @ (s[:, None] * v.T)


def pca_by_row_factorization(x, k, params=None):
    """(components, explained_variance) of PCA on rows of ``x`` by the
    n-row route: factor ``x - mean`` itself with ``exact_svd``, or with
    ``randomized_svd(., params)`` when sketch params are given, and keep
    the signs those fix on its U. The reference for ``fit_pca`` and
    ``fit_rpca``, which factor a B x B factor of the band covariance and
    take signs from the data's scores. With sketch params the signs here
    come from the sketch's estimate of U, so they match only where the
    sketch resolves the component, as it does on the criterion-2
    matrices."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=0)
    svd = exact_svd(centered, k) if params is None else randomized_svd(centered, params)
    return svd.vt, svd.s**2 / (x.shape[0] - 1)


# --- chi-square(1) tail by numerical integration -------------------------


def chi2_sf_numeric(x, span=80.0, points=400001):
    """P(X > x) for chi-square(1), by Simpson integration of the density
    over [x, x + span]; the remaining tail is below 1e-15 for span 80."""
    t = np.linspace(x, x + span, points)
    if t[0] == 0.0:
        t[0] = 1e-300
    pdf = np.exp(-t / 2.0) / np.sqrt(2.0 * np.pi * t)
    h = t[1] - t[0]
    weights = np.ones(points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(weights * pdf))


# --- McNemar exact tail by outcome enumeration ---------------------------


def mcnemar_exact_enumeration(b, c):
    """Two-sided exact p by brute force over all 2^(b+c) ways the
    discordant pixels could have fallen."""
    n = b + c
    if n == 0:
        return 1.0
    observed = abs(b - c)
    hits = 0
    for outcome in range(2**n):
        k = bin(outcome).count("1")
        if abs(2 * k - n) >= observed:
            hits += 1
    return hits / float(2**n)


# --- GBDT tree walk, one row and one node at a time ----------------------


def tree_walk(tree, x):
    """Leaf value of each row of ``x``, stepping each row from the root
    down by the rule ``value < threshold`` goes left."""
    out = np.empty(len(x))
    for i, row in enumerate(x):
        node = 0
        while tree.feature[node] >= 0:
            goes_left = row[tree.feature[node]] < tree.threshold[node]
            node = tree.left[node] if goes_left else tree.right[node]
        out[i] = tree.value[node]
    return out


# --- Synthetic scene, filled as whole arrays ------------------------------


def gaussian_scene_values(height, width, bands, num_classes, seed=0, noise=1.0,
                          separation=10.0, unlabeled_fraction=0.05):
    """(values, labels) of ``gaussian_scene``, built as whole arrays.

    The unblocked reference for ``gaussian_scene``, which draws the same
    noise stream in blocks and stores each block into a float32 cube:
    here all ``bands * height * width`` normals are drawn in one call,
    the float64 scene is formed whole and then cast to float32.
    """
    rng = SplitMix64(seed)
    scale = separation * noise / np.sqrt(2.0 * bands)
    means = rng.normal_matrix(num_classes, bands) * scale

    stripe = (np.arange(width) * num_classes) // width
    labels = np.tile(stripe + 1, (height, 1)).astype(np.uint16)

    clean = means[stripe].T[:, None, :]
    values = clean + noise * rng.normal_matrix(bands * height, width).reshape(
        bands, height, width
    )

    if unlabeled_fraction > 0.0:
        drop = rng.uniforms(height * width).reshape(height, width) < unlabeled_fraction
        labels[drop] = 0
    return values.astype(np.float32), labels

"""RBF-kernel SVM trained by sequential minimal optimization.

Multiclass problems are handled one-vs-one: each class pair gets a
binary machine whose dual is solved by SMO with first-order maximal
violating pair selection, the smaller class id playing the +1 role.
Features are rescaled to [0, 1] per dimension from the training
min/max (the RBF width is scale sensitive); the scaling is recorded in
the model and reapplied at prediction time. ``SvmParams`` and
``SvmGrid`` check their fields when they are built, so every object that
exists is valid; a grid's entries are checked by ``SvmParams``'s rule
when the grid is built, so every cell of a valid grid is valid.

Kernel columns are computed on demand, as SMO steps ask for them, and
kept in a least-recently-used cache (``functools.lru_cache``) of as many
columns as ``_KERNEL_CACHE_BYTES`` holds; no Gram matrix is ever formed,
so training memory per class pair grows with the cache budget and the
columns touched, not with n^2. A full cache evicts only after a missed
column is computed, so it holds one column over its budget while a miss
is computed. An evicted column is recomputed bit for bit, so the budget
and the eviction order never change a result. While a pair is shrunk,
the gathers of its columns over the active rows are kept in a second
LRU cache, under the same budget at the active size. Each shrink starts
a new one, so no gather is ever re-indexed.

Each SMO step selects from two masked copies of the scores, one with
-inf where a row's alpha cannot move along +y and one with +inf where
it cannot move along -y, both updated in place: a step allocates no
n-length array, and the two hold bit for bit the values one score
array would.

A class pair of at least ``_SHRINK_ROWS`` rows is shrunk: every
``_SHRINK_EVERY`` iterations the rows at a bound that cannot form a
violating pair leave both copies, so selection and the update run over
the active rows only, and a step reads its two columns as gathers over
those rows. Whenever the active rows converge, the shrunk rows' scores
are rebuilt and checked; the solve takes the same path as an unshrunk
one unless a shrunk row then violates, in which case it goes on over
all rows and keeps shrinking on the same clock (see ``_smo_solve``).
Smaller pairs, such as a grid search's folds, are never shrunk.

Training is fully deterministic: ties in working-set selection and in
one-vs-one voting are broken by smallest index / smallest class id.

The class pairs of ``svm_train`` and the machines of ``svm_predict`` are
independent, so both are dealt over the CPUs the process may run on
(see ``hsikit.classify._pool``). So are the (C, gamma, fold) fits of
``grid_search_cv``: an item trains one fold, predicts its held-out
rows and returns only the fold's accuracy, and its pairs and machines
run serially where it runs. The results are bit-identical to a serial
run.

A machine's decision values are computed in blocks of test rows whose
test x support-vector kernel fits ``_KERNEL_BLOCK_BYTES`` (one row when
a row alone is larger), with at most two block-sized arrays alive at a
time, so prediction memory is bounded by that budget, not by the number
of test rows times the support vectors. The block size depends only on
the budget and the support-vector count, never on the CPU count. The BLAS
may round a product of a few rows differently from one of many, so a
decision value can move at rounding level with the block size;
predictions read only its sign, which moves only for a decision within
rounding of zero.
"""

import functools
import itertools
import warnings
from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np

from ..errors import DegenerateDataError
from ..hsi_data import SampleSet, stratified_folds
from ..linalg import as_matrix
from ..records import Record, check_int, coerce
from ._pool import spread

__all__ = [
    "SvmParams",
    "SvmGrid",
    "SvmModel",
    "BinarySvm",
    "svm_train",
    "svm_predict",
    "grid_search_cv",
]

# Memory for the kernel columns that one SMO solve caches: 128 MiB.
_KERNEL_CACHE_BYTES = 4096 * 4096 * 8

# Shrinking: a class pair of at least _SHRINK_ROWS rows drops, every
# _SHRINK_EVERY SMO iterations, the bound rows that cannot violate now.
# Below that size the rebuilds of the shrunk rows' scores cost more than
# shrinking saves: on one Xeon core with one OpenBLAS thread, shrinking
# made the svm-grid benchmark's 520-540-row fold pairs 8 % slower to
# solve, and the pavia-svm benchmark's 4.9k-row pairs 37 % faster.
_SHRINK_EVERY = 100
_SHRINK_ROWS = 2000

# Memory for one block of the test x support-vector kernel at predict
# time: 2^16 float64, which stays in cache.
_KERNEL_BLOCK_BYTES = 2**16 * 8


@dataclass(frozen=True)
class SvmParams(Record):
    """SMO settings: box bound ``c``, RBF width ``gamma``, KKT
    ``tolerance`` and iteration cap ``max_iter``. Building one with a
    bad field raises ValueError naming it."""

    c: float = 600.0
    gamma: float = 0.5
    tolerance: float = 1e-3
    max_iter: int = 100_000

    def __post_init__(self):
        for name, value in (("c", self.c), ("gamma", self.gamma), ("tolerance", self.tolerance)):
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        check_int(self.max_iter, "max_iter", 1)


@dataclass(frozen=True)
class SvmGrid(Record):
    """Grid search settings: the ``c`` and ``gamma`` values to try and the
    number of cross-validation ``folds``. The default grid is centered on
    ``SvmParams``'s C=600, gamma=0.5. ``c`` and ``gamma`` are non-empty
    lists whose entries are stored as floats, each passing ``SvmParams``'s
    rule; ``folds`` is an integer >= 2. Building one with a bad field
    raises ValueError naming it."""

    c: list[float] = field(default_factory=lambda: [1.0, 10.0, 100.0, 600.0, 1000.0])
    gamma: list[float] = field(default_factory=lambda: [0.01, 0.1, 0.5, 1.0, 2.0])
    folds: int = 5

    def __post_init__(self):
        for name in ("c", "gamma"):
            values = getattr(self, name)
            if not isinstance(values, list) or not values:
                raise ValueError(f"{name} must be a non-empty list, got {values!r}")
            values = [coerce(v, float, name) for v in values]
            for value in values:
                SvmParams(**{name: value})
            object.__setattr__(self, name, values)
        check_int(self.folds, "folds", 2)


@dataclass
class BinarySvm(Record):
    """One trained class-pair machine; ``class_pos`` is the smaller id."""

    class_pos: int
    class_neg: int
    support_vectors: Annotated[np.ndarray, np.float64]
    dual_coef: Annotated[np.ndarray, np.float64]  # alpha_i * y_i for each support vector
    bias: float
    n_iter: int
    converged: bool
    kkt_violation: float

    def decision(self, x_scaled: np.ndarray, gamma: float, sq_x: np.ndarray) -> np.ndarray:
        """Decision values of the rows of ``x_scaled``; ``sq_x`` holds
        their squared norms, which the caller computes once for every
        machine (see ``_wins_pos``).

        The kernel K[i, j] = exp(-gamma * ||x_i - sv_j||^2) is formed in
        blocks of ``max(1, _KERNEL_BLOCK_BYTES // (8 * n_sv))`` rows, each
        block with the operations of the whole-matrix formula in its
        order: the block's x @ sv^T is doubled in place and subtracted,
        in place, from the sum of squared norms, so the product and that
        sum are the only block-sized arrays alive at once. A block's row
        count can move a decision value at rounding level (see the
        module docstring).
        """
        sv = self.support_vectors
        sq_sv = (sv * sv).sum(axis=1)
        n = len(x_scaled)
        rows = max(1, _KERNEL_BLOCK_BYTES // (8 * max(1, len(sv))))
        out = np.empty(n)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            k = x_scaled[start:stop] @ sv.T
            k *= 2.0
            np.subtract(sq_x[start:stop, None] + sq_sv, k, out=k)
            np.maximum(k, 0.0, out=k)
            k *= -gamma
            np.exp(k, out=k)
            np.matmul(k, self.dual_coef, out=out[start:stop])
        out += self.bias
        return out


@dataclass
class SvmModel(Record):
    SCHEMA = "hsikit/svm-model/1"

    classes: Annotated[np.ndarray, np.int64]
    machines: list[BinarySvm]
    params: SvmParams
    feature_min: Annotated[np.ndarray, np.float64]
    feature_range: Annotated[np.ndarray, np.float64]
    warnings: list[str] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return self.feature_min.shape[0]


def _masked(score, up, low):
    """``score`` as selection reads it: -inf outside ``up`` and +inf
    outside ``low`` (see ``_smo_solve``)."""
    return np.where(up, score, -np.inf), np.where(low, score, np.inf)


def _smo_solve(x: np.ndarray, y: np.ndarray, params: SvmParams):
    """Solve the binary soft-margin dual by SMO.

    Minimizes 0.5 a'Qa - e'a over 0 <= a <= C, y'a = 0 with
    Q_ij = y_i y_j K_ij. Returns (alpha, bias, n_iter, converged,
    final KKT violation), where converged means the violation is within
    the tolerance. Selection picks the maximal violating pair.

    The loop keeps only what selection reads: the score -y * gradient,
    updated from the two kernel columns of each step, and the masks
    ``up`` / ``low`` of the rows whose alpha may still move along +y /
    -y, of which a step changes entries i and j alone. The score is held
    twice, as ``s_up`` (-inf outside ``up``) and ``s_low`` (+inf outside
    ``low``), so selection is ``s_up.argmax()`` and ``s_low.argmin()``,
    first extremum on ties, and the violation is ``s_up[i] - s_low[j]``.
    Neither mask is ever empty: ``up`` empty would put every +1 row at C
    and every -1 row at 0, and ``low`` empty the reverse, either way
    breaking sum(y * alpha) = 0 with both labels present. A step writes
    ``ki - kj`` into one buffer, scales it by the step and subtracts it
    from both arrays: the same IEEE operations, in the same order, as
    updating a single score array, and -inf and +inf stay as they are.
    When i or j changes mask, its score is read from the array that held
    it (every row is in ``up`` or ``low``, since C > 0) and written where
    the new mask holds. The scores are therefore bit-identical to a
    single array's, and so is every choice. Scalars and the per-row
    alpha, label and mask values are Python floats and bools.

    Shrinking: after every ``_SHRINK_EVERY``-th step, a problem of at
    least ``_SHRINK_ROWS`` rows is checked for bound rows that cannot
    form a violating pair now: rows only in ``up`` scoring below
    ``min(s_low)`` and rows only in ``low`` scoring above ``max(s_up)``.
    They leave the score arrays, so selection and the update run over the
    active rows only; free rows never leave. The maximal violating pair
    of a step never leaves, and the active rows' scores keep their bits,
    so a solve whose shrunk rows never come back takes the unshrunk path
    step for step. When the active rows converge, or the cap is reached,
    the shrunk rows' scores are rebuilt from the kernel columns of the
    nonzero alphas. One score array takes them and each active row's
    score from an array that holds it, and is masked by ``up`` and
    ``low`` as the solve's first scores are (``_masked``), so no active
    score changes its bits; selection runs over all rows again. If a rebuilt
    row then violates, the solve goes on over all rows and shrinks again
    at the next check: that is the one way it leaves the unshrunk path,
    and the rebuilt scores differ from the updated ones at rounding
    level.

    Kernel columns are computed on demand into an LRU cache of as many
    columns as ``_KERNEL_CACHE_BYTES`` holds, and never fewer than the
    two a step reads; a miss on a full cache holds one column more until
    the oldest is evicted. A column is a pure function of x and its
    index, so eviction never changes the result. While rows are shrunk,
    a step reads its columns as gathers over the active rows, kept in an
    LRU cache of as many as ``_KERNEL_CACHE_BYTES`` holds at the active
    size. Each shrink that drops rows starts a new one, and no gather is
    re-indexed; the rebuild reads one full column at a time.
    """
    n = len(y)
    c = float(params.c)
    sq = (x * x).sum(axis=1)

    @functools.lru_cache(maxsize=max(2, _KERNEL_CACHE_BYTES // (8 * n)))
    def col(i):
        d2 = sq + sq[i] - 2.0 * (x @ x[i])
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-params.gamma * d2)

    score = np.array(y, dtype=np.float64)  # -y * gradient; the gradient is -1 at alpha = 0
    pos = score > 0
    s_up, s_low = _masked(score, pos, ~pos)
    diff = np.empty(n)
    y = score.tolist()
    pos = pos.tolist()
    up = pos[:]
    low = [not p for p in pos]
    alpha = [0.0] * n
    tolerance = params.tolerance
    max_iter = params.max_iter
    # The score arrays hold the rows ``active``, whose columns ``column``
    # reads: all rows and ``col`` until a shrink, then the active rows and
    # the shrink's cache of gathers.
    active = np.arange(n)
    column = col
    n_iter = 0
    while True:
        ci = int(s_up.argmax())
        cj = int(s_low.argmin())
        violation = s_up.item(ci) - s_low.item(cj)
        if violation <= tolerance or n_iter == max_iter:
            if column is col:
                break
            shrunk = np.setdiff1d(np.arange(n), active, assume_unique=True)
            rebuilt = score[shrunk]  # the scores at alpha = 0
            for k in np.flatnonzero(alpha).tolist():
                rebuilt -= (alpha[k] * y[k]) * col(k)[shrunk]
            full = np.empty(n)
            full[active] = np.where(np.array(up)[active], s_up, s_low)
            full[shrunk] = rebuilt
            s_up, s_low = _masked(full, up, low)
            diff = np.empty(n)
            active = np.arange(n)
            column = col
            continue
        i = active.item(ci)
        j = active.item(cj)
        ki = column(i)
        kj = column(j)
        quad = ki.item(ci) + kj.item(cj) - 2.0 * ki.item(cj)
        step = violation / max(quad, 1e-12)
        a_i = alpha[i]
        a_j = alpha[j]
        cap_i = (c - a_i) if pos[i] else a_i
        cap_j = a_j if pos[j] else (c - a_j)
        step = min(step, cap_i, cap_j)
        if step == cap_i:
            alpha[i] = c if pos[i] else 0.0
        else:
            alpha[i] = min(max(a_i + y[i] * step, 0.0), c)
        if step == cap_j:
            alpha[j] = 0.0 if pos[j] else c
        else:
            alpha[j] = min(max(a_j - y[j] * step, 0.0), c)
        np.subtract(ki, kj, out=diff)
        diff *= step
        s_up -= diff
        s_low -= diff
        for k, ck in ((i, ci), (j, cj)):
            a = alpha[k]
            up_k = a < c if pos[k] else a > 0.0
            low_k = a > 0.0 if pos[k] else a < c
            if up_k != up[k] or low_k != low[k]:
                s = (s_up if up[k] else s_low).item(ck)
                s_up[ck] = s if up_k else -np.inf
                s_low[ck] = s if low_k else np.inf
                up[k] = up_k
                low[k] = low_k
        n_iter += 1
        # The check follows a step, so a rebuild's ``continue`` never
        # repeats it at the same count.
        if n_iter % _SHRINK_EVERY == 0 and n >= _SHRINK_ROWS:
            top = s_up.max()
            bottom = s_low.min()
            drop = ((s_up < bottom) & (s_low == np.inf)) | ((s_low > top) & (s_up == -np.inf))
            if top - bottom > tolerance and drop.any():
                keep = ~drop
                s_up = s_up[keep]
                s_low = s_low[keep]
                diff = np.empty(len(s_up))
                active = active[keep]

                @functools.lru_cache(maxsize=max(2, _KERNEL_CACHE_BYTES // (8 * len(active))))
                def column(i):
                    return col(i)[active]
    # Bias: mean score over the free vectors (those in both up and low,
    # whose score s_up holds), else the midpoint of the final maximal
    # violating pair.
    free = np.array(up) & np.array(low)
    bias = s_up[free].mean() if free.any() else (s_up.item(ci) + s_low.item(cj)) / 2.0
    return np.array(alpha), float(bias), n_iter, violation <= tolerance, violation


def _fit_scaling(features: np.ndarray):
    # float64 before the range, so float32 features scale as their float64 copy.
    fmin = features.min(axis=0).astype(np.float64)
    frange = features.max(axis=0) - fmin
    frange = np.where(frange > 0.0, frange, 1.0)
    return fmin, frange


def _fit_machines(pairs: list, scaled: np.ndarray, labels: np.ndarray, params) -> list:
    """The trained machine of each (class_pos, class_neg) pair, in order.

    A pair's rows are gathered from ``scaled`` only while it is solved,
    so one pair's copy is held at a time, here and in each worker.
    """
    machines = []
    for cls_a, cls_b in pairs:
        mask = (labels == cls_a) | (labels == cls_b)
        x_pair = scaled[mask]
        y_pair = np.where(labels[mask] == cls_a, 1.0, -1.0)
        alpha, bias, n_iter, converged, violation = _smo_solve(x_pair, y_pair, params)
        sv = alpha > 0.0
        machines.append(
            BinarySvm(
                class_pos=cls_a,
                class_neg=cls_b,
                support_vectors=x_pair[sv],
                dual_coef=(alpha * y_pair)[sv],
                bias=bias,
                n_iter=n_iter,
                converged=converged,
                kkt_violation=float(violation),
            )
        )
    return machines


def svm_train(train: SampleSet, params: SvmParams | None = None) -> SvmModel:
    """Train a one-vs-one RBF SVM on a labeled sample set.

    Raises DegenerateDataError when fewer than two classes are present
    or a class pair consists of identical feature rows with conflicting
    labels; the first such pair in pair order is named before any pair
    is solved. A machine that hits the iteration cap is kept, with a
    warning recorded in the model. The pairs are solved on every CPU the
    process may use (see the module docstring).
    """
    params = params or SvmParams()
    classes = np.unique(train.labels)
    if len(classes) < 2:
        raise DegenerateDataError("SVM training needs at least 2 classes")
    fmin, frange = _fit_scaling(train.features)
    scaled = (train.features - fmin) / frange
    pairs = list(itertools.combinations(classes.tolist(), 2))
    # A pair's rows are all one row iff each of its classes is one row and
    # the two rows are equal.
    one_row = {}
    for cls in classes.tolist():
        rows = scaled[train.labels == cls]
        if (rows == rows[0]).all():
            one_row[cls] = rows[0]
    for cls_a, cls_b in pairs:
        if cls_a in one_row and cls_b in one_row and (one_row[cls_a] == one_row[cls_b]).all():
            raise DegenerateDataError(f"classes {cls_a} and {cls_b} have identical feature rows")
    machines = spread(_fit_machines, pairs, scaled, train.labels, params)
    notes = [
        f"pair ({m.class_pos}, {m.class_neg}): iteration cap {params.max_iter} reached "
        f"(KKT violation {m.kkt_violation:.3e})"
        for m in machines
        if not m.converged
    ]
    return SvmModel(
        classes=classes.astype(np.int64),
        machines=machines,
        params=params,
        feature_min=fmin,
        feature_range=frange,
        warnings=notes,
    )


def _wins_pos(machines: list, x_scaled: np.ndarray, gamma: float) -> list:
    """Each machine's ``decision > 0`` over the rows of ``x_scaled``."""
    sq_x = (x_scaled * x_scaled).sum(axis=1)
    return [machine.decision(x_scaled, gamma, sq_x) > 0.0 for machine in machines]


def svm_predict(model: SvmModel, x) -> np.ndarray:
    """Predict class labels by one-vs-one voting.

    A strictly positive decision votes for the smaller class id of the
    pair; overall ties go to the smallest class id. The machines are
    evaluated on every CPU the process may use (see the module
    docstring).
    """
    x = as_matrix(x, "x", cols=model.n_features)
    scaled = (x - model.feature_min) / model.feature_range
    wins = spread(_wins_pos, model.machines, scaled, model.params.gamma)
    class_index = {int(cls): idx for idx, cls in enumerate(model.classes)}
    votes = np.zeros((x.shape[0], len(model.classes)), dtype=np.int64)
    for machine, wins_pos in zip(model.machines, wins):
        votes[:, class_index[machine.class_pos]] += wins_pos
        votes[:, class_index[machine.class_neg]] += ~wins_pos
    return model.classes[np.argmax(votes, axis=1)]


def _fold_accuracies(fits: list, fold_sets: list, params: SvmParams) -> list:
    """The held-out accuracy, a float, of each (C, gamma, fold) fit, each
    trained with ``params`` with its own C and gamma put in."""
    accuracies = []
    for c, gamma, fold in fits:
        fold_train, fold_test = fold_sets[fold]
        model = svm_train(fold_train, replace(params, c=c, gamma=gamma))
        predicted = svm_predict(model, fold_test.features)
        accuracies.append(float(np.mean(predicted == fold_test.labels)))
    return accuracies


def grid_search_cv(
    train: SampleSet,
    grid: SvmGrid | None = None,
    seed: int = 0,
    params: SvmParams | None = None,
):
    """Stratified k-fold grid search over the (C, gamma) cells of ``grid``
    (default ``SvmGrid()``), its ``folds`` folds drawn with ``seed``.

    Each cell trains with ``params`` (default ``SvmParams()``) with its
    own C and gamma put in. The cells are the sorted, distinct values of
    ``grid.c`` and ``grid.gamma``, so their order in the grid does not
    matter.

    Returns (best_c, best_gamma, table) where table rows are
    ``{"c", "gamma", "cv_accuracy"}`` in ascending (C, gamma) order.
    The winning cell maximizes mean fold accuracy; ties prefer smaller
    C, then smaller gamma. When a class has fewer samples than
    ``folds``, the fold count is reduced (with a warning) so every fold
    sees every class; below 2 usable folds this is an error. The fits
    run on every CPU the process may use (see the module docstring).
    """
    grid = grid or SvmGrid()
    params = params or SvmParams()
    folds = grid.folds
    classes, counts = np.unique(train.labels, return_counts=True)
    if len(classes) < 2:
        raise DegenerateDataError("grid search needs at least 2 classes")
    usable = int(counts.min())
    if usable < 2:
        raise DegenerateDataError(
            "grid search needs every class to have at least 2 samples"
        )
    if usable < folds:
        warnings.warn(
            f"reducing folds from {folds} to {usable} so every fold sees every class",
            stacklevel=2,
        )
        folds = usable
    fold_sets = []
    for held_out in stratified_folds(train.labels, folds, seed):
        in_fold = np.ones(len(train), dtype=bool)
        in_fold[held_out] = False
        fold_sets.append((train.take(in_fold), train.take(held_out)))
    cells = list(itertools.product(sorted(set(grid.c)), sorted(set(grid.gamma))))
    fits = [(c, gamma, fold) for c, gamma in cells for fold in range(folds)]
    accuracies = spread(_fold_accuracies, fits, fold_sets, params)
    table = []
    for k, (c, gamma) in enumerate(cells):
        cv_accuracy = float(np.mean(accuracies[k * folds : (k + 1) * folds]))
        table.append({"c": c, "gamma": gamma, "cv_accuracy": cv_accuracy})
    # The table is in ascending (C, gamma) order, and max keeps the first
    # maximum: ties go to the smaller C, then the smaller gamma.
    best = max(table, key=lambda row: row["cv_accuracy"])
    return best["c"], best["gamma"], table

"""RBF-kernel SVM trained by sequential minimal optimization.

Multiclass problems are handled one-vs-one: each class pair gets a
binary machine whose dual is solved by SMO with first-order maximal
violating pair selection, the smaller class id playing the +1 role.
Features are rescaled to [0, 1] per dimension from the training
min/max (the RBF width is scale sensitive); the scaling is recorded in
the model and reapplied at prediction time.

Kernel columns are computed on demand, as SMO steps ask for them, and
kept in a least-recently-used cache bounded by ``_KERNEL_CACHE_BYTES``;
no Gram matrix is ever formed, so training memory per class pair grows
with the cache budget and the columns touched, not with n^2. An evicted
column is recomputed bit for bit, so the budget and the eviction order
never change a result.

Each SMO step selects from two masked copies of the scores, one with
-inf where a row's alpha cannot move along +y and one with +inf where
it cannot move along -y, both updated in place: a step allocates no
n-length array, and the two hold bit for bit the values one score
array would.

Training is fully deterministic: ties in working-set selection and in
one-vs-one voting are broken by smallest index / smallest class id.

The class pairs of ``svm_train`` and the machines of ``svm_predict`` are
independent, so both are spread over the CPUs the process may run on
(``os.sched_getaffinity``; ``taskset`` limits them). The items go into
one bin per CPU, heaviest first into the lightest bin: pairs weighed by
row count, machines by support-vector count. The calling process runs
bin 0 and a pool of CPUs - 1 ``fork`` workers runs the others; the pool
is made on first use, with ``multiprocessing`` and
``concurrent.futures`` imported only then, and kept by the process that
made it. Every item runs the same code on the same inputs wherever it
runs, so the results are bit-identical to a serial run, and with one
CPU the same function runs in-process with no pool. A process forked
from a pool's owner, and a daemonic multiprocessing worker (which may
not start children), run serially. A worker that dies raises
``WorkerError``.
"""

import atexit
import itertools
import os
import sys
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np

from ..errors import DegenerateDataError, WorkerError
from ..hsi_data import SampleSet, stratified_folds
from ..linalg import as_matrix
from ..records import Record, check_int_fields

__all__ = [
    "SvmParams",
    "SvmModel",
    "BinarySvm",
    "rbf_kernel",
    "svm_train",
    "svm_predict",
    "grid_search_cv",
    "DEFAULT_C_GRID",
    "DEFAULT_GAMMA_GRID",
    "DEFAULT_FOLDS",
]

# Grid centered on the defaults C=600, gamma=0.5.
DEFAULT_C_GRID = (1.0, 10.0, 100.0, 600.0, 1000.0)
DEFAULT_GAMMA_GRID = (0.01, 0.1, 0.5, 1.0, 2.0)
DEFAULT_FOLDS = 5

# Memory for cached kernel columns per SMO solve: what a 4096-row Gram
# matrix of float64 takes.
_KERNEL_CACHE_BYTES = 4096 * 4096 * 8

# (owner pid, workers, executor) of the process pool; None until first use.
_pool = None


@dataclass(frozen=True)
class SvmParams:
    c: float = 600.0
    gamma: float = 0.5
    tolerance: float = 1e-3
    max_iter: int = 100_000

    def validate(self):
        check_int_fields(self)
        if not self.c > 0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


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

    def decision(self, x_scaled: np.ndarray, gamma: float, sq_x=None) -> np.ndarray:
        """Decision values of the rows of ``x_scaled``; ``sq_x`` holds
        their squared norms, computed here when not given."""
        k = _rbf_cross(x_scaled, self.support_vectors, gamma, sq_x)
        return k @ self.dual_coef + self.bias


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


def rbf_kernel(x, y, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2) for two equal-length vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"rbf_kernel needs equal-length vectors, got {x.shape} and {y.shape}")
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    d = x - y
    return float(np.exp(-gamma * (d @ d)))


def _rbf_cross(a: np.ndarray, b: np.ndarray, gamma: float, sq_a=None) -> np.ndarray:
    """Kernel block K[i, j] = exp(-gamma * ||a_i - b_j||^2).

    ``sq_a`` is ``(a * a).sum(axis=1)``, computed here when not given.
    """
    if sq_a is None:
        sq_a = (a * a).sum(axis=1)
    sq_b = (b * b).sum(axis=1)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-gamma * d2)


def _smo_solve(x: np.ndarray, y: np.ndarray, params: SvmParams):
    """Solve the binary soft-margin dual by SMO.

    Minimizes 0.5 a'Qa - e'a over 0 <= a <= C, y'a = 0 with
    Q_ij = y_i y_j K_ij. Returns (alpha, bias, n_iter, converged,
    final KKT violation). Selection picks the maximal violating pair.

    The loop keeps only what selection reads: the score -y * gradient,
    updated from the two kernel columns of each step, and the masks
    ``up`` / ``low`` of the rows whose alpha may still move along +y /
    -y, of which a step changes entries i and j alone. The score is held
    twice, as ``s_up`` (-inf outside ``up``) and ``s_low`` (+inf outside
    ``low``), so selection is ``s_up.argmax()`` and ``s_low.argmin()``,
    first extremum on ties. A step writes ``ki - kj`` into one buffer,
    scales it by the step and subtracts it from both arrays: the same
    IEEE operations, in the same order, as updating a single score
    array, and -inf and +inf stay as they are. When i or j changes mask,
    its score is read from the array that held it (every row is in
    ``up`` or ``low``, since C > 0) and written where the new mask
    holds. The scores are therefore bit-identical to a single array's,
    and so is every choice. Scalars and the per-row alpha, label and
    mask values are Python floats and bools; the single score array is
    rebuilt once, after the loop, for the bias.

    Kernel columns are computed on demand into an LRU cache of at most
    ``_KERNEL_CACHE_BYTES`` (and never fewer than the two columns a step
    reads). A column is a pure function of x and its index, so eviction
    never changes the result.
    """
    n = len(y)
    c = float(params.c)
    sq = (x * x).sum(axis=1)
    capacity = max(2, _KERNEL_CACHE_BYTES // (8 * n))
    cache = OrderedDict()

    def col(i):
        column = cache.get(i)
        if column is None:
            if len(cache) == capacity:
                cache.popitem(last=False)
            d2 = sq + sq[i] - 2.0 * (x @ x[i])
            np.maximum(d2, 0.0, out=d2)
            column = cache[i] = np.exp(-params.gamma * d2)
        else:
            cache.move_to_end(i)
        return column

    score = np.array(y, dtype=np.float64)  # -y * gradient; the gradient is -1 at alpha = 0
    pos = score > 0
    s_up = np.where(pos, score, -np.inf)
    s_low = np.where(pos, np.inf, score)
    diff = np.empty(n)
    y = score.tolist()
    pos = pos.tolist()
    up = pos[:]
    low = [not p for p in pos]
    alpha = [0.0] * n
    tolerance = params.tolerance
    max_iter = params.max_iter
    n_iter = 0
    while True:
        i = int(s_up.argmax())
        j = int(s_low.argmin())
        violation = (s_up if up[i] else s_low).item(i) - (s_low if low[j] else s_up).item(j)
        if violation <= tolerance or n_iter == max_iter:
            break
        ki = col(i)
        kj = col(j)
        quad = ki.item(i) + kj.item(j) - 2.0 * ki.item(j)
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
        for k in (i, j):
            a = alpha[k]
            up_k = a < c if pos[k] else a > 0.0
            low_k = a > 0.0 if pos[k] else a < c
            if up_k != up[k] or low_k != low[k]:
                s = (s_up if up[k] else s_low).item(k)
                s_up[k] = s if up_k else -np.inf
                s_low[k] = s if low_k else np.inf
                up[k] = up_k
                low[k] = low_k
        n_iter += 1
    # Bias: mean score over the free vectors (those in both up and low),
    # else the midpoint of the final maximal violating pair.
    up = np.array(up)
    low = np.array(low)
    score = np.where(up, s_up, s_low)
    free = up & low
    bias = score[free].mean() if free.any() else (score[i] + score[j]) / 2.0
    return np.array(alpha), float(bias), n_iter, n_iter < max_iter, violation


def _fit_scaling(features: np.ndarray):
    fmin = features.min(axis=0)
    frange = features.max(axis=0) - fmin
    frange = np.where(frange > 0.0, frange, 1.0)
    return fmin, frange


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _executor(workers: int):
    """This process's pool of ``workers`` processes, or None to run serially.

    A process forked from a pool's owner (one of the pool's own workers,
    say) runs serially, as the owner's pool already fills the CPUs; so
    does a daemonic multiprocessing worker, which may not start children.
    A pool of another size, left by a change of the CPU set, is replaced.
    """
    global _pool
    if _pool is not None and _pool[0] != os.getpid():
        return None
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.current_process().daemon:
        return None
    if _pool is not None and _pool[1] != workers:
        _drop_pool()
    if _pool is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        _pool = (os.getpid(), workers, ProcessPoolExecutor(workers, mp_context=context))
    return _pool[2]


@atexit.register
def _drop_pool() -> None:
    """Shut down the pool this process made; the next ``_executor`` makes a
    new one. Run at exit too, so the pool goes while its modules are whole."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown(cancel_futures=True)
        _pool = None


def _spread(fn, items: list, weights: list, *args) -> list:
    """``fn(bin, *args)`` over ``items`` split into one bin per CPU.

    ``fn`` returns one result per item of its bin; ``_spread`` returns
    them in item order. Each item, heaviest first (first on ties), goes
    to the bin of least weight so far (first on ties). This process runs
    bin 0 while the pool runs the others; with one CPU or one item,
    ``fn`` runs here once over all items.
    """
    cpus = _cpu_count()
    n_bins = min(cpus, len(items))
    executor = _executor(cpus - 1) if n_bins > 1 else None
    if executor is None:
        return fn(items, *args)
    from concurrent.futures.process import BrokenProcessPool

    bins = [[] for _ in range(n_bins)]
    loads = [0] * n_bins
    for k in sorted(range(len(items)), key=lambda k: -weights[k]):
        b = loads.index(min(loads))
        bins[b].append(k)
        loads[b] += weights[k]
    try:
        futures = [executor.submit(fn, [items[k] for k in b], *args) for b in bins[1:]]
        outputs = [fn([items[k] for k in bins[0]], *args)]
        outputs += [future.result() for future in futures]
    except BrokenProcessPool as exc:
        _drop_pool()
        raise WorkerError("a worker process died before returning its result") from exc
    results = [None] * len(items)
    for b, output in zip(bins, outputs):
        for k, result in zip(b, output):
            results[k] = result
    return results


def _fit_machines(pairs: list, scaled: np.ndarray, labels: np.ndarray, params) -> list:
    """The trained machine of each (class_pos, class_neg) pair.

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
    labels. A machine that hits the iteration cap is kept, with a
    warning recorded in the model. The pairs are solved on every CPU the
    process may use (see the module docstring).
    """
    params = params or SvmParams()
    params.validate()
    features = as_matrix(train.features, "train.features")
    classes, counts = np.unique(train.labels, return_counts=True)
    if len(classes) < 2:
        raise DegenerateDataError("SVM training needs at least 2 classes")
    fmin, frange = _fit_scaling(features)
    scaled = (features - fmin) / frange
    # The rows of a pair are all one row when both its classes are
    # constant with the same row.
    constant = {}
    for cls in classes.tolist():
        rows = scaled[train.labels == cls]
        if np.all(rows == rows[0]):
            constant[cls] = rows[0]
    pairs = list(itertools.combinations(classes.tolist(), 2))
    for cls_a, cls_b in pairs:
        if cls_a in constant and cls_b in constant:
            if np.array_equal(constant[cls_a], constant[cls_b]):
                raise DegenerateDataError(
                    f"classes {cls_a} and {cls_b} have identical feature rows"
                )
    count = dict(zip(classes.tolist(), counts.tolist()))
    weights = [count[cls_a] + count[cls_b] for cls_a, cls_b in pairs]
    machines = _spread(_fit_machines, pairs, weights, scaled, train.labels, params)
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
    weights = [len(machine.dual_coef) for machine in model.machines]
    wins = _spread(_wins_pos, model.machines, weights, scaled, model.params.gamma)
    class_index = {int(cls): idx for idx, cls in enumerate(model.classes)}
    votes = np.zeros((x.shape[0], len(model.classes)), dtype=np.int64)
    for machine, wins_pos in zip(model.machines, wins):
        votes[wins_pos, class_index[machine.class_pos]] += 1
        votes[~wins_pos, class_index[machine.class_neg]] += 1
    return model.classes[np.argmax(votes, axis=1)]


def grid_search_cv(
    train: SampleSet,
    c_grid=DEFAULT_C_GRID,
    gamma_grid=DEFAULT_GAMMA_GRID,
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
    params: SvmParams | None = None,
):
    """Stratified k-fold grid search over (C, gamma).

    Each cell trains with ``params`` (default ``SvmParams()``) with its
    own C and gamma put in.

    Returns (best_c, best_gamma, table) where table rows are
    ``{"c", "gamma", "cv_accuracy"}`` in ascending (C, gamma) order.
    The winning cell maximizes mean fold accuracy; ties prefer smaller
    C, then smaller gamma. When a class has fewer samples than
    ``folds``, the fold count is reduced (with a warning) so every fold
    sees every class; below 2 usable folds this is an error.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if params is None:
        params = SvmParams()
    c_grid = sorted(set(float(v) for v in c_grid))
    gamma_grid = sorted(set(float(v) for v in gamma_grid))
    if not c_grid or not gamma_grid:
        raise ValueError("c_grid and gamma_grid must be non-empty")
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
    table = []
    best = None
    for c in c_grid:
        for gamma in gamma_grid:
            cell = replace(params, c=c, gamma=gamma)
            accuracies = []
            for fold_train, fold_test in fold_sets:
                model = svm_train(fold_train, cell)
                predicted = svm_predict(model, fold_test.features)
                accuracies.append(float(np.mean(predicted == fold_test.labels)))
            cv_accuracy = float(np.mean(accuracies))
            table.append({"c": c, "gamma": gamma, "cv_accuracy": cv_accuracy})
            if best is None or cv_accuracy > best[0]:
                best = (cv_accuracy, c, gamma)
    return best[1], best[2], table

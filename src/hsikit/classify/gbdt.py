"""Gradient-boosted decision trees with histogram splits and GOSS.

Multiclass training uses a softmax objective with one regression tree
per class per round, second-order leaf weights w = -G / (H + lambda),
and leaf-wise growth: the open leaf with the largest split gain is
expanded next until ``max_leaves`` is reached or no leaf improves.

Features are bucketed once into at most ``num_bins`` bins by training
quantiles; split thresholds are stored as raw feature values so that
prediction never needs the bin edges. The routing rule is strict:
``value < threshold`` goes left, everything else right, matching the
half-open binning. A tree routes rows by index partition
(``Tree.leaves``): starting from all row indices at the root, each
internal node splits its index array on one contiguous feature column
(the features transposed once per call, or once per ensemble in
``GbdtModel.decision_scores``), and each leaf writes its node to the
rows that reach it; a prediction is the leaf values at those nodes.
Training routes its rows through the same routine on the binned
features: each split keeps its bin, the index of its edge plus one, as
the threshold of a bin-space copy of the tree, which routes every row
as the raw threshold does.

Gradient-based one-side sampling (GOSS) keeps the top ``a * n`` rows
by summed absolute gradient each round, samples ``b * n`` of the rest
uniformly, and amplifies the sampled small-gradient rows by
(1 - a) / b so histogram sums stay unbiased in expectation. GOSS draws
from ``SplitMix64(seed)``, ``seed`` being ``gbdt_train``'s argument; a
run passes its run seed.

A round's class trees are independent once its gradients and GOSS rows
are fixed. Each tree grows on those rows alone, gathered in ascending
order, so each histogram bin sums the same values in the same order as
it would over all rows. The class trees are spread over the CPUs the
process may run on (see ``hsikit.classify._pool``). Each returns with
the leaf node of every training row, one byte a row for trees of up to
256 nodes, and the caller adds those leaves' values to its scores; the
trees and scores are bit-identical however many CPUs there are.

``GbdtParams`` checks its fields when it is built, so every object that
exists is valid and training does not check them again. Training checks
its scores after every round instead: a learning rate large enough to
overflow them to infinity or NaN raises ``ConvergenceError``, so no
model holds a non-finite leaf value.
"""

from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np

from ..errors import ConvergenceError, DegenerateDataError
from ..hsi_data import SampleSet
from ..linalg import as_matrix
from ..records import Record, check_int
from ..rng import SplitMix64
from ._pool import spread

__all__ = [
    "GbdtParams",
    "GbdtModel",
    "Tree",
    "gbdt_train",
    "gbdt_predict",
    "softmax_probabilities",
    "softmax_cross_entropy",
    "softmax_gradients",
]

# L2 regularization on leaf weights; shared by gain and weight formulas.
_LAMBDA = 1.0

# Gains at or below this are treated as "no useful split".
_MIN_GAIN = 1e-12


@dataclass(frozen=True)
class GbdtParams(Record):
    """Boosting settings. Building one with a bad field raises
    ValueError naming it."""

    num_trees: int = 200
    learning_rate: float = 0.1
    max_leaves: int = 31
    min_samples_leaf: int = 20
    num_bins: int = 64
    goss_top_rate: float = 0.2
    goss_other_rate: float = 0.1

    def __post_init__(self):
        check_int(self.num_trees, "num_trees", 1)
        check_int(self.max_leaves, "max_leaves", 2)
        check_int(self.min_samples_leaf, "min_samples_leaf", 1)
        check_int(self.num_bins, "num_bins", 2)
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.goss_top_rate < 1.0:
            raise ValueError(f"goss_top_rate must be in [0, 1), got {self.goss_top_rate}")
        if not 0.0 <= self.goss_other_rate < 1.0:
            raise ValueError(f"goss_other_rate must be in [0, 1), got {self.goss_other_rate}")
        if self.goss_top_rate > 0 and self.goss_other_rate <= 0:
            raise ValueError("goss_other_rate must be > 0 when goss_top_rate is > 0")
        if self.goss_top_rate + self.goss_other_rate >= 1.0:
            raise ValueError("goss_top_rate + goss_other_rate must be < 1")


@dataclass
class Tree(Record):
    """One regression tree as flat arrays; feature == -1 marks a leaf."""

    feature: Annotated[np.ndarray, np.int32]  # -1 for leaves
    threshold: Annotated[np.ndarray, np.float64]  # raw cut value, 0.0 for leaves
    left: Annotated[np.ndarray, np.int32]  # child index, -1 for leaves
    right: Annotated[np.ndarray, np.int32]
    value: Annotated[np.ndarray, np.float64]  # leaf output (shrinkage included), 0.0 inside

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf value of each row of ``x`` (rows x features)."""
        return self.predict_columns(np.ascontiguousarray(x.T))

    def predict_columns(self, columns: np.ndarray) -> np.ndarray:
        """Leaf value of each row, given the rows' features as columns
        (features x rows, so each feature is one contiguous array)."""
        return self.value[self.leaves(columns)]

    def leaves(self, columns: np.ndarray) -> np.ndarray:
        """Leaf node of each row, given the rows' features as columns, in
        the smallest unsigned type that holds every node."""
        out = np.empty(columns.shape[1], dtype=np.min_scalar_type(self.n_nodes - 1))
        stack = [(0, np.arange(columns.shape[1]))]
        while stack:
            node, rows = stack.pop()
            f = self.feature[node]
            if f < 0:
                out[rows] = node
                continue
            go_left = columns[f][rows] < self.threshold[node]
            stack += [(self.left[node], rows[go_left]), (self.right[node], rows[~go_left])]
        return out


@dataclass
class GbdtModel(Record):
    SCHEMA = "hsikit/gbdt-model/1"

    classes: Annotated[np.ndarray, np.int64]
    priors: Annotated[np.ndarray, np.float64]  # log class frequencies, the round-0 scores
    trees: list[list[Tree]]  # trees[r][c] is the round-r tree for class column c
    params: GbdtParams
    n_features: int
    warnings: list[str] = field(default_factory=list)

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        scores = np.tile(self.priors, (x.shape[0], 1))
        columns = np.ascontiguousarray(x.T)
        for round_trees in self.trees:
            for c, tree in enumerate(round_trees):
                scores[:, c] += tree.predict_columns(columns)
        return scores


def softmax_probabilities(scores: np.ndarray) -> np.ndarray:
    p = scores - scores.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def softmax_cross_entropy(scores: np.ndarray, onehot: np.ndarray) -> float:
    """Total (summed) cross-entropy of softmax(scores) against one-hot rows."""
    z = scores - scores.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float(np.sum(log_norm - (z * onehot).sum(axis=1)))


def softmax_gradients(scores: np.ndarray, onehot: np.ndarray):
    """Per-entry gradient p - y and diagonal hessian p(1 - p) of the
    summed cross-entropy with respect to the score matrix."""
    p = softmax_probabilities(scores)
    hess = 1.0 - p
    hess *= p
    p -= onehot
    return p, hess


def _bin_features(features: np.ndarray, num_bins: int):
    """Quantile bin edges per feature and the binned features, feature
    major (features x rows, so each feature's bins are contiguous).

    Bin b holds values v with edges[b-1] <= v < edges[b], so a split at
    boundary t (left = bins 0..t) is exactly the raw rule v < edges[t].
    Bins are stored in the smallest unsigned type that holds them.
    """
    n, width = features.shape
    qs = np.arange(1, num_bins) / num_bins
    edges = []
    binned = np.empty((width, n), dtype=np.min_scalar_type(num_bins - 1))
    for f in range(width):
        col = features[:, f]
        e = np.unique(np.quantile(col, qs))
        edges.append(e)
        binned[f] = np.searchsorted(e, col, side="right")
    return edges, binned


def _goss_sizes(n: int, params: GbdtParams):
    """(top, other): how many of ``n`` rows GOSS keeps by gradient and
    how many it samples from the rest, each round."""
    top_n = int(round(params.goss_top_rate * n))
    return top_n, min(int(round(params.goss_other_rate * n)), n - top_n)


def _goss_sample(grad: np.ndarray, params: GbdtParams, rng: SplitMix64):
    """Row subset and per-row amplification weights for one round.

    Rows are ranked by the summed absolute gradient across classes
    (stable, so gradient ties resolve by row index). Returns rows in
    ascending index order.
    """
    n = grad.shape[0]
    if params.goss_top_rate <= 0.0:
        return np.arange(n), np.ones(n)
    top_n, other_n = _goss_sizes(n, params)
    order = np.argsort(-np.abs(grad).sum(axis=1), kind="stable")
    top = order[:top_n]
    rest = order[top_n:]
    picked = rest[rng.permutation(len(rest))[:other_n]]
    rows = np.sort(np.concatenate([top, picked]))
    weights = np.ones(n)
    weights[picked] = (1.0 - params.goss_top_rate) / params.goss_other_rate
    return rows, weights[rows]


@dataclass(eq=False)
class _Leaf:
    """Open leaf during growth: its node, rows, histogram and best split."""

    node: int
    rows: np.ndarray
    hist: np.ndarray  # (gradient, hessian, row count) x feature x bin sums
    gain: float
    feature: int
    cut: int


def _offset_codes(binned_rows: np.ndarray, num_bins: int) -> np.ndarray:
    """The rows' bins as one flat code per (row, feature): feature f's
    bin b is code f * num_bins + b, row by row."""
    width = binned_rows.shape[1]
    return (binned_rows + np.arange(width, dtype=np.int32) * num_bins).ravel()


def _histograms(codes, g, h, width, num_bins, counts=None):
    """Per-(feature, bin) sums of gradient, hessian, and row count over
    the rows coded by ``codes`` (``_offset_codes``) whose values are
    ``g`` and ``h``, as one (3, width, num_bins) array. ``counts``, the
    row-count sums, is counted here when not given."""
    size = width * num_bins
    if counts is None:
        counts = np.bincount(codes, minlength=size)
    weights = (np.repeat(g, width), np.repeat(h, width))
    hist = [np.bincount(codes, weights=w, minlength=size) for w in weights] + [counts]
    return np.array(hist, dtype=np.float64).reshape(3, width, num_bins)


def _leaf_histograms(binned, rows, g, h, num_bins):
    """``_histograms`` of the ``rows`` of ``binned``, ``g`` and ``h``."""
    codes = _offset_codes(binned[rows], num_bins)
    return _histograms(codes, g[rows], h[rows], binned.shape[1], num_bins)


def _best_split(hists: np.ndarray, min_samples_leaf: int):
    """(gain, feature, cut) of each leaf's best boundary, for a stack of
    leaf histograms shaped (leaves, 3, features, bins).

    gain = 0.5 [G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam)],
    maximized over all boundaries with both sides holding at least
    ``min_samples_leaf`` rows. Ties pick the smallest feature, then the
    smallest boundary.
    """
    cum = np.cumsum(hists, axis=3)[..., :-1]
    g_left, h_left, n_left = cum.swapaxes(0, 1)
    g_total, h_total, n_total = hists[:, :, 0].sum(axis=2).T[:, :, None, None]
    g_right = g_total - g_left
    gain = 0.5 * (
        g_left * g_left / (h_left + _LAMBDA)
        + g_right * g_right / (h_total - h_left + _LAMBDA)
        - g_total * g_total / (h_total + _LAMBDA)
    )
    gain[(n_left < min_samples_leaf) | (n_total - n_left < min_samples_leaf)] = -np.inf
    per_leaf = gain.reshape(len(gain), -1)
    flat = per_leaf.argmax(axis=1)
    best = per_leaf[np.arange(len(gain)), flat]
    feature, cut = np.divmod(flat, gain.shape[2])
    return list(zip(best.tolist(), feature.tolist(), cut.tolist()))


def _grow_tree(binned, edges, g, h, rows, params: GbdtParams, root):
    """Grow one leaf-wise tree on the ``rows`` of pre-binned features
    (rows x features); returns the tree and its bin-space copy.

    ``g`` and ``h`` are per-row (already amplified) gradient and
    hessian values for one class column. A split at boundary ``cut``
    keeps its raw threshold ``edges[f][cut]`` and its bin ``cut + 1``,
    so the bin-space copy routes the binned rows as the tree routes the
    raw ones (see ``_bin_features``). Each open leaf keeps one
    histogram array; a split builds the smaller child's and takes the
    sibling's as the difference, and searches both children's splits
    in one call. ``root`` is the histogram of ``rows``, which the
    caller builds (see ``_grow_class_trees``).
    """
    def new_leaves(nodes, leaf_rows, hists):
        splits = _best_split(hists, params.min_samples_leaf)
        return [
            _Leaf(node, r, hist, *split)
            for node, r, hist, split in zip(nodes, leaf_rows, hists, splits)
        ]

    # A tree of L leaves has 2L - 1 nodes, numbered in creation order.
    size = 2 * params.max_leaves - 1
    feature = np.full(size, -1, dtype=np.int32)
    threshold = np.zeros(size)
    bin_threshold = np.zeros(size)
    left = np.full(size, -1, dtype=np.int32)
    right = np.full(size, -1, dtype=np.int32)
    value = np.zeros(size)
    # Open leaves in creation order: max() takes the first of equal
    # gains, so ties go to the oldest leaf.
    open_leaves = new_leaves([0], [rows], root[None])
    while len(open_leaves) < params.max_leaves:
        leaf = max(open_leaves, key=lambda l: l.gain)
        if leaf.gain <= _MIN_GAIN:
            break
        open_leaves.remove(leaf)
        go_left = binned[leaf.rows, leaf.feature] <= leaf.cut
        children = (leaf.rows[go_left], leaf.rows[~go_left])
        # Build the smaller side's histogram, derive the sibling's.
        small = int(len(children[0]) > len(children[1]))
        hists = np.empty((2, *leaf.hist.shape))
        hists[small] = _leaf_histograms(binned, children[small], g, h, params.num_bins)
        np.subtract(leaf.hist, hists[small], out=hists[1 - small])
        node_l = 2 * (len(open_leaves) + 1) - 1  # nodes so far: the open leaves and this one
        feature[leaf.node] = leaf.feature
        threshold[leaf.node] = edges[leaf.feature][leaf.cut]
        bin_threshold[leaf.node] = leaf.cut + 1
        left[leaf.node] = node_l
        right[leaf.node] = node_l + 1
        open_leaves += new_leaves((node_l, node_l + 1), children, hists)
    with np.errstate(over="ignore"):  # gbdt_train checks the scores these values make
        for leaf in open_leaves:
            g_sum, h_sum = leaf.hist[:2, 0].sum(axis=1)
            value[leaf.node] = -params.learning_rate * g_sum / (h_sum + _LAMBDA)
    n_nodes = 2 * len(open_leaves) - 1
    tree = Tree(
        feature=feature[:n_nodes],
        threshold=threshold[:n_nodes],
        left=left[:n_nodes],
        right=right[:n_nodes],
        value=value[:n_nodes],
    )
    return tree, replace(tree, threshold=bin_threshold[:n_nodes])


def _grow_class_trees(class_gh: list, rows, binned_columns, edges, params) -> list:
    """(tree, leaf node of every training row) for each class's
    ``(g, h)`` in ``class_gh``, its GOSS rows' gradients and hessians.

    ``binned_columns`` holds every training row's bins (features x
    rows). The round's trees grow on its GOSS ``rows``, gathered here
    once. The root's offset codes and row counts are the same for every
    class, so they are built once; each class adds only its gradient and
    hessian sums.
    """
    binned = np.ascontiguousarray(binned_columns[:, rows].T)
    width = binned.shape[1]
    codes = _offset_codes(binned, params.num_bins)
    counts = np.bincount(codes, minlength=width * params.num_bins)
    local = np.arange(len(rows))
    grown = []
    for g, h in class_gh:
        root = _histograms(codes, g, h, width, params.num_bins, counts)
        tree, bin_tree = _grow_tree(binned, edges, g, h, local, params, root)
        grown.append((tree, bin_tree.leaves(binned_columns)))
    return grown


def _class_gradients(scores, onehot, params: GbdtParams, rng: SplitMix64):
    """(each class's ``(g, h)``, the GOSS rows) of one round: the
    amplified gradients and hessians of the rows it samples from the
    softmax gradients of ``scores``. The full n x C gradients end here,
    before the round's trees grow."""
    grad, hess = softmax_gradients(scores, onehot)
    rows, amplify = _goss_sample(grad, params, rng)
    g = np.ascontiguousarray(grad[rows].T) * amplify
    h = np.ascontiguousarray(hess[rows].T) * amplify
    return list(zip(g, h)), rows


def gbdt_train(train: SampleSet, params: GbdtParams | None = None, seed: int = 0) -> GbdtModel:
    """Boost ``num_trees`` rounds of per-class leaf-wise trees.

    Scores start at the log class frequencies; every round fits one
    tree per class column to the softmax gradient/hessian, on the GOSS
    row subset when sampling is enabled. GOSS draws from
    ``SplitMix64(seed)``; without sampling ``seed`` changes nothing.
    A round's trees are grown on every CPU the process may use (see the
    module docstring).
    """
    params = params or GbdtParams()
    classes = np.unique(train.labels)
    n, width = train.features.shape
    if len(classes) < 2:
        raise DegenerateDataError("GBDT training needs at least 2 classes")
    onehot = (train.labels[:, None] == classes[None, :]).astype(np.float64)
    priors = np.log(onehot.mean(axis=0))
    scores = np.tile(priors, (n, 1))
    edges, binned_columns = _bin_features(train.features, params.num_bins)
    rng = SplitMix64(seed)
    notes = []
    if params.goss_top_rate > 0 and n < 20:
        notes.append(f"GOSS keeps {sum(_goss_sizes(n, params))} of {n} rows per round")
    all_trees = []
    for _ in range(params.num_trees):
        # Each class's own g and h, so a bin receives only its classes'. No
        # name holds them, so they are freed before the next round's.
        grown = spread(
            _grow_class_trees, *_class_gradients(scores, onehot, params, rng),
            binned_columns, edges, params,
        )
        for c, (tree, leaves) in enumerate(grown):
            scores[:, c] += tree.value[leaves]
        if not np.isfinite(scores).all():
            raise ConvergenceError("the GBDT scores overflow float64; lower learning_rate")
        all_trees.append([tree for tree, _ in grown])
    return GbdtModel(
        classes=classes.astype(np.int64),
        priors=priors,
        trees=all_trees,
        params=params,
        n_features=width,
        warnings=notes,
    )


def gbdt_predict(model: GbdtModel, x) -> np.ndarray:
    """Class labels by argmax score; ties go to the smallest class id."""
    x = as_matrix(x, "x", cols=model.n_features)
    scores = model.decision_scores(x)
    return model.classes[np.argmax(scores, axis=1)]

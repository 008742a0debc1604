"""Tests for the leaf-wise histogram GBDT with GOSS sampling."""

import multiprocessing
import tracemalloc

import numpy as np
import pytest

from _oracles import tree_walk
from hsikit.classify import _pool as pool
from hsikit.classify import gbdt
from hsikit.classify.gbdt import (
    GbdtModel,
    GbdtParams,
    Tree,
    _bin_features,
    _goss_sample,
    _grow_tree,
    _leaf_histograms,
    gbdt_predict,
    gbdt_train,
    softmax_cross_entropy,
    softmax_gradients,
    softmax_probabilities,
)
from hsikit.errors import ConvergenceError, DegenerateDataError
from hsikit.hsi_data import SampleSet
from hsikit.rng import SplitMix64

NO_GOSS = {"goss_top_rate": 0.0, "goss_other_rate": 0.0}


def sample_set(features, labels):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    labels = np.asarray(labels, dtype=np.int64)
    return SampleSet(
        features=features,
        labels=labels,
        pixel_indices=np.arange(len(labels), dtype=np.int64),
    )


def two_gaussian_set(n_per_class, separation, seed):
    rng = SplitMix64(seed)
    a = rng.normal_matrix(n_per_class, 2)
    b = rng.normal_matrix(n_per_class, 2) + separation
    return sample_set(np.vstack([a, b]), [1] * n_per_class + [2] * n_per_class)


def grow(binned, edges, g, h, rows, params):
    """``_grow_tree`` on a root histogram of ``rows`` built here."""
    root = _leaf_histograms(binned, rows, g, h, params.num_bins)
    return _grow_tree(binned, edges, g, h, rows, params, root)


def grow_with_expansions(monkeypatch, binned, edges, g, h, rows, params):
    """``grow``, plus (chosen leaf's gain, gains of the other open
    leaves) for each expansion in order.

    Each ``_best_split`` call scores the leaves it is given in node
    order: the root first, then the two children of each expansion, so
    the k-th expansion creates nodes 2k - 1 and 2k, and its parent is
    the node whose left child is 2k - 1.
    """
    gains = []
    best_split = gbdt._best_split

    def recording(hists, min_samples_leaf):
        splits = best_split(hists, min_samples_leaf)
        gains.extend(gain for gain, _, _ in splits)
        return splits

    monkeypatch.setattr(gbdt, "_best_split", recording)
    tree, _ = grow(binned, edges, g, h, rows, params)
    expansions, open_nodes = [], [0]
    for k in range(1, tree.n_leaves):
        parent = int(np.flatnonzero(tree.left == 2 * k - 1)[0])
        open_nodes.remove(parent)
        expansions.append((gains[parent], [gains[node] for node in open_nodes]))
        open_nodes += [2 * k - 1, 2 * k]
    return tree, expansions


def exhaustive_root_split(features, g, h, num_bins, min_leaf, lam=1.0):
    """Best (feature, threshold) by direct enumeration over quantile
    boundaries, aggregating raw rows. Ties: smallest feature, then
    smallest boundary."""
    best = (-np.inf, -1, -1)
    g_tot, h_tot = g.sum(), h.sum()
    parent = g_tot * g_tot / (h_tot + lam)
    for f in range(features.shape[1]):
        col = features[:, f]
        edges = np.unique(np.quantile(col, np.arange(1, num_bins) / num_bins))
        for t, edge in enumerate(edges):
            left = col < edge
            n_l = int(left.sum())
            if n_l < min_leaf or len(col) - n_l < min_leaf:
                continue
            g_l, h_l = g[left].sum(), h[left].sum()
            g_r, h_r = g_tot - g_l, h_tot - h_l
            gain = 0.5 * (
                g_l * g_l / (h_l + lam) + g_r * g_r / (h_r + lam) - parent
            )
            if gain > best[0]:
                best = (gain, f, float(edge))
    return best


def grid_features(n, width, seed):
    """Normal features rounded to a 0.5 grid: many rows share a value,
    so quantile bin edges land exactly on feature values."""
    return np.round(SplitMix64(seed).normal_matrix(n, width) * 2.0) / 2.0


def tree_of(feature, threshold, left, right, value):
    return Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )


def round_losses(model, features, onehot):
    """Training loss after each boosting round, walking the saved trees."""
    scores = np.tile(model.priors, (features.shape[0], 1))
    columns = np.ascontiguousarray(features.T)
    losses = [softmax_cross_entropy(scores, onehot)]
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            scores[:, c] += tree.predict_columns(columns)
        losses.append(softmax_cross_entropy(scores, onehot))
    return losses


# ------------------------------------------------------------------ softmax


def test_softmax_probabilities_rows_normalized():
    scores = SplitMix64(90).normal_matrix(10, 4) * 2.0
    p = softmax_probabilities(scores)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p > 0.0).all()


def test_softmax_cross_entropy_known_value():
    # Uniform scores over 3 classes: loss is log(3) per row, summed.
    scores = np.zeros((4, 3))
    onehot = np.eye(3)[[0, 1, 2, 0]]
    assert abs(softmax_cross_entropy(scores, onehot) - 4.0 * np.log(3.0)) < 1e-12


def test_softmax_gradients_finite_differences():
    rng = SplitMix64(91)
    scores = rng.normal_matrix(4, 3) * 2.0
    labels = (rng.uniforms(4) * 3).astype(int)
    onehot = np.eye(3)[labels]
    grad, hess = softmax_gradients(scores, onehot)
    for i in range(4):
        for c in range(3):
            for h_step, order in ((1e-4, 1), (1e-3, 2)):
                plus = scores.copy()
                minus = scores.copy()
                plus[i, c] += h_step
                minus[i, c] -= h_step
                if order == 1:
                    fd = (
                        softmax_cross_entropy(plus, onehot)
                        - softmax_cross_entropy(minus, onehot)
                    ) / (2.0 * h_step)
                    assert abs(grad[i, c] - fd) <= 1e-5 * max(abs(fd), 0.01)
                else:
                    fd = (
                        softmax_cross_entropy(plus, onehot)
                        - 2.0 * softmax_cross_entropy(scores, onehot)
                        + softmax_cross_entropy(minus, onehot)
                    ) / h_step**2
                    assert abs(hess[i, c] - fd) <= 1e-5 * max(abs(fd), 0.01)


def test_gradients_sum_to_zero_per_row():
    scores = SplitMix64(92).normal_matrix(6, 5)
    onehot = np.eye(5)[[0, 1, 2, 3, 4, 0]]
    grad, hess = softmax_gradients(scores, onehot)
    assert np.abs(grad.sum(axis=1)).max() < 1e-12
    assert (hess > 0.0).all() and (hess <= 0.25 + 1e-12).all()


# ------------------------------------------------------------------ binning


def test_bin_edges_are_quantiles():
    col = np.arange(16, dtype=np.float64)
    edges, binned = _bin_features(col[:, None], num_bins=4)
    assert np.allclose(edges[0], np.quantile(col, [0.25, 0.5, 0.75]))
    # Bin b holds edges[b-1] <= v < edges[b].
    assert binned.min() == 0 and binned.max() == 3


def test_bin_duplicate_quantiles_collapse():
    col = np.array([0.0] * 10 + [1.0] * 2)
    edges, binned = _bin_features(col[:, None], num_bins=4)
    assert len(edges[0]) < 3
    assert len(np.unique(edges[0])) == len(edges[0])


def test_bin_boundary_matches_raw_rule():
    col = SplitMix64(93).uniforms(100)
    edges, binned = _bin_features(col[:, None], num_bins=8)
    for t, edge in enumerate(edges[0]):
        assert np.array_equal(binned[0] <= t, col < edge)


# --------------------------------------------------------------------- goss


def test_goss_disabled_returns_everything():
    grad = SplitMix64(94).normal_matrix(50, 2)
    rows, weights = _goss_sample(grad, GbdtParams(**NO_GOSS), SplitMix64(0))
    assert np.array_equal(rows, np.arange(50))
    assert (weights == 1.0).all()


def test_goss_counts_and_weights():
    n = 100
    params = GbdtParams(goss_top_rate=0.2, goss_other_rate=0.1)
    grad = SplitMix64(95).normal_matrix(n, 3)
    rows, weights = _goss_sample(grad, params, SplitMix64(1))
    assert len(rows) == 30  # round(0.2*100) + round(0.1*100)
    assert (np.diff(rows) > 0).all()
    key = np.abs(grad).sum(axis=1)
    top = set(np.argsort(-key, kind="stable")[:20])
    for r, w in zip(rows, weights):
        if r in top:
            assert w == 1.0
        else:
            assert w == (1.0 - 0.2) / 0.1


def test_goss_equal_gradients_stable_top():
    # All-equal ranking keys: the kept top block is the first rows in
    # index order, and the weighted total matches the full count.
    n = 40
    params = GbdtParams(goss_top_rate=0.25, goss_other_rate=0.25)
    grad = np.ones((n, 2))
    rows, weights = _goss_sample(grad, params, SplitMix64(2))
    top_n = round(0.25 * n)
    assert set(range(top_n)) <= set(rows)
    assert abs(weights.sum() - n) < 1e-9


def test_goss_unbiased_over_seeds():
    # The amplified sample estimates the full |gradient| mass: over 200
    # seeds the mean estimate stays within 3 standard errors.
    n = 80
    params = GbdtParams(goss_top_rate=0.2, goss_other_rate=0.1)
    grad = SplitMix64(96).normal_matrix(n, 1)
    key = np.abs(grad).sum(axis=1)
    estimates = []
    for seed in range(200):
        rows, weights = _goss_sample(grad, params, SplitMix64(seed))
        estimates.append(float((key[rows] * weights).sum()))
    estimates = np.asarray(estimates)
    truth = float(key.sum())
    stderr = estimates.std(ddof=1) / np.sqrt(len(estimates))
    assert abs(estimates.mean() - truth) <= 3.0 * stderr


def test_goss_inclusion_probabilities():
    # Every non-top row is sampled with equal probability; per-row
    # counts over 200 seeds stay within 4 sigma of the binomial mean.
    n = 50
    params = GbdtParams(goss_top_rate=0.2, goss_other_rate=0.2)
    grad = SplitMix64(97).normal_matrix(n, 1)
    top_n, other_n = round(0.2 * n), round(0.2 * n)
    rest = np.argsort(-np.abs(grad).sum(axis=1), kind="stable")[top_n:]
    counts = np.zeros(n)
    trials = 200
    for seed in range(trials):
        rows, _ = _goss_sample(grad, params, SplitMix64(seed + 1000))
        counts[rows] += 1
    p = other_n / len(rest)
    sigma = np.sqrt(trials * p * (1.0 - p))
    assert np.abs(counts[rest] - trials * p).max() <= 4.0 * sigma


# ------------------------------------------------------------- tree growth


def test_single_split_matches_exhaustive_oracle():
    # One feature, one split: the root boundary must be the gain
    # argmax found by direct enumeration.
    x = np.array([0.0, 0.1, 0.2, 0.3, 5.0, 5.1, 5.2, 5.3])
    labels = [1, 1, 1, 1, 2, 2, 2, 2]
    train = sample_set(x, labels)
    params = GbdtParams(
        num_trees=1, max_leaves=2, min_samples_leaf=1, num_bins=8, **NO_GOSS
    )
    model = gbdt_train(train, params)
    onehot = np.eye(2)[np.asarray(labels) - 1]
    scores = np.tile(model.priors, (8, 1))
    grad, hess = softmax_gradients(scores, onehot)
    for c, tree in enumerate(model.trees[0]):
        gain, f, threshold = exhaustive_root_split(
            train.features, grad[:, c], hess[:, c], num_bins=8, min_leaf=1
        )
        assert gain > 0.0
        assert tree.feature[0] == f == 0
        assert tree.threshold[0] == threshold
        assert tree.n_leaves == 2
    # The boundary actually separates the classes.
    assert 0.3 < model.trees[0][0].threshold[0] <= 5.0
    assert np.array_equal(gbdt_predict(model, train.features), train.labels)


def test_root_split_matches_oracle_multifeature():
    rng = SplitMix64(98)
    features = rng.normal_matrix(40, 3)
    labels = 1 + (rng.uniforms(40) < 0.5).astype(np.int64)
    features[labels == 2, 1] += 1.0  # make feature 1 informative
    train = sample_set(features, labels)
    params = GbdtParams(
        num_trees=1, max_leaves=2, min_samples_leaf=3, num_bins=8, **NO_GOSS
    )
    model = gbdt_train(train, params)
    onehot = np.eye(2)[labels - 1]
    grad, hess = softmax_gradients(np.tile(model.priors, (40, 1)), onehot)
    for c, tree in enumerate(model.trees[0]):
        gain, f, threshold = exhaustive_root_split(
            features, grad[:, c], hess[:, c], num_bins=8, min_leaf=3
        )
        assert tree.feature[0] == f
        assert tree.threshold[0] == threshold


def test_leaf_wise_growth_expands_best_leaf_first(monkeypatch):
    # Instrumented growth: every expansion must pick a leaf whose gain
    # is at least every other open leaf's gain.
    rng = SplitMix64(99)
    features = rng.normal_matrix(300, 4)
    g = rng.normals(300)
    h = np.full(300, 0.25)
    params = GbdtParams(
        num_trees=1, max_leaves=10, min_samples_leaf=5, num_bins=16, **NO_GOSS
    )
    edges, binned = _bin_features(features, params.num_bins)
    tree, expansions = grow_with_expansions(
        monkeypatch, binned.T, edges, g, h, np.arange(300), params
    )
    assert len(expansions) >= 3
    for chosen, others in expansions:
        assert all(chosen >= other - 1e-12 for other in others)
    assert tree.n_leaves <= params.max_leaves


def test_leaf_wise_growth_ties_go_to_the_older_leaf(monkeypatch):
    # Feature 0 splits the rows into two halves whose gradients are
    # negatives of each other, so both children of the root have the
    # same best gain on feature 1. With room for one more split, the
    # earlier-created leaf (node 1) is the one expanded.
    x0 = np.repeat([0.0, 1.0], 8)
    x1 = np.tile(np.repeat([0.0, 1.0], 4), 2)
    g = np.concatenate([np.repeat([-2.0, 0.0], 4), np.repeat([2.0, 0.0], 4)])
    h = np.full(16, 0.25)
    params = GbdtParams(
        num_trees=1, max_leaves=3, min_samples_leaf=1, num_bins=4, **NO_GOSS
    )
    edges, binned = _bin_features(np.column_stack([x0, x1]), params.num_bins)
    tree, expansions = grow_with_expansions(
        monkeypatch, binned.T, edges, g, h, np.arange(16), params
    )
    assert len(expansions) == 2
    chosen, others = expansions[1]
    assert others == [chosen]
    assert list(tree.feature) == [0, 1, -1, -1, -1]
    assert list(tree.left) == [1, 3, -1, -1, -1]


@pytest.mark.parametrize(
    "max_leaves, min_samples_leaf, grown_leaves",
    [(2, 5, 2), (7, 5, 7), (31, 2, 31), (31, 60, None)],  # None: stops below max_leaves
)
def test_grown_tree_structure(max_leaves, min_samples_leaf, grown_leaves):
    rng = SplitMix64(98)
    features = rng.normal_matrix(200, 3)
    g = rng.normals(200)
    h = np.full(200, 0.25)
    params = GbdtParams(
        num_trees=1, max_leaves=max_leaves, min_samples_leaf=min_samples_leaf,
        num_bins=16, **NO_GOSS
    )
    edges, binned = _bin_features(features, params.num_bins)
    tree, _ = grow(binned.T, edges, g, h, np.arange(200), params)
    if grown_leaves is None:
        assert 1 < tree.n_leaves < max_leaves
    else:
        assert tree.n_leaves == grown_leaves
    assert tree.n_nodes == 2 * tree.n_leaves - 1
    for array in (tree.feature, tree.threshold, tree.left, tree.right, tree.value):
        assert array.shape == (tree.n_nodes,)
    leaf = tree.feature == -1
    assert (tree.left[leaf] == -1).all() and (tree.right[leaf] == -1).all()
    assert (tree.threshold[leaf] == 0.0).all()
    inner = ~leaf
    assert (tree.feature[inner] >= 0).all() and (tree.feature[inner] < 3).all()
    assert (tree.value[inner] == 0.0).all()
    # Every node but the root is the child of exactly one inner node,
    # and children are created after their parent.
    children = np.concatenate([tree.left[inner], tree.right[inner]])
    assert sorted(children) == list(range(1, tree.n_nodes))
    assert (tree.left[inner] > np.nonzero(inner)[0]).all()
    assert (tree.right[inner] == tree.left[inner] + 1).all()


def test_grown_leaf_values_include_shrinkage():
    x = np.array([0.0, 0.0, 1.0, 1.0])
    g = np.array([-0.5, -0.5, 0.5, 0.5])
    h = np.full(4, 0.25)
    params = GbdtParams(
        num_trees=1, max_leaves=2, min_samples_leaf=1, num_bins=4,
        learning_rate=0.3, **NO_GOSS
    )
    edges, binned = _bin_features(x[:, None], params.num_bins)
    tree, _ = grow(binned.T, edges, g, h, np.arange(4), params)
    # Leaf value is -lr * G / (H + 1).
    expect_left = -0.3 * (-1.0) / (0.5 + 1.0)
    expect_right = -0.3 * (1.0) / (0.5 + 1.0)
    got = tree.predict_columns(np.ascontiguousarray(x[:, None].T))
    assert np.allclose(got[:2], expect_left, atol=1e-12)
    assert np.allclose(got[2:], expect_right, atol=1e-12)


def test_no_split_below_min_samples():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    g = np.array([-1.0, 1.0, -1.0, 1.0])
    h = np.full(4, 0.25)
    params = GbdtParams(
        num_trees=1, max_leaves=8, min_samples_leaf=4, num_bins=4, **NO_GOSS
    )
    edges, binned = _bin_features(x[:, None], params.num_bins)
    tree, _ = grow(binned.T, edges, g, h, np.arange(4), params)
    assert tree.n_leaves == 1


def test_a_small_but_real_gain_splits():
    # G_L = 5e-3 on H_L = 50 and G_R = -5e-3 on H_R = 50, so the split's
    # gain is 0.5 * 2 * 25e-6 / 51, about 4.9e-7: small, yet not zero.
    x = np.arange(100, dtype=np.float64)
    g = np.where(x < 50, 1e-4, -1e-4)
    h = np.ones(100)
    params = GbdtParams(num_trees=1, min_samples_leaf=5, **NO_GOSS)
    edges, binned = _bin_features(x[:, None], params.num_bins)
    tree, _ = grow(binned.T, edges, g, h, np.arange(100), params)
    assert tree.n_leaves == 2
    # The cut falls between the two halves: each leaf holds one sign.
    values = tree.predict_columns(np.ascontiguousarray(x[None, :]))
    assert (values[:50] < 0).all() and (values[50:] > 0).all()


def test_bin_space_tree_routes_binned_rows_as_the_tree_routes_raw_rows():
    # Features on a 0.5 grid put many values exactly on bin edges, where
    # a threshold off by one bin would route them the other way.
    features = grid_features(300, 4, seed=116)
    params = GbdtParams(
        num_trees=1, max_leaves=17, min_samples_leaf=4, num_bins=16, **NO_GOSS
    )
    edges, binned = _bin_features(features, params.num_bins)
    rng = SplitMix64(117)
    tree, bin_tree = grow(
        binned.T, edges, rng.normals(300), np.full(300, 0.25), np.arange(300), params
    )
    assert tree.n_leaves == params.max_leaves
    inner = tree.feature >= 0
    cuts = zip(tree.feature[inner], tree.threshold[inner])
    on_edge = [(features[:, f] == t).any() for f, t in cuts]
    assert sum(on_edge) > len(on_edge) // 2
    for name in ("feature", "left", "right", "value"):
        assert np.array_equal(getattr(bin_tree, name), getattr(tree, name)), name
    columns = np.ascontiguousarray(features.T)
    assert np.array_equal(bin_tree.predict_columns(binned), tree.predict_columns(columns))


# ----------------------------------------------------------------- training


def test_train_single_class_rejected():
    with pytest.raises(DegenerateDataError):
        gbdt_train(sample_set([0.0, 1.0], [1, 1]))


def test_train_scores_that_overflow_raise_convergence_error(force_cpus):
    force_cpus(1)
    params = GbdtParams(num_trees=3, learning_rate=1e308, **NO_GOSS)
    with pytest.raises(ConvergenceError, match="scores overflow float64"):
        gbdt_train(two_gaussian_set(20, separation=2.0, seed=118), params)


def test_train_param_validation():
    for bad in (
        dict(num_trees=0),
        dict(learning_rate=0.0),
        dict(max_leaves=1),
        dict(min_samples_leaf=0),
        dict(num_bins=1),
        dict(goss_top_rate=1.0),
        dict(goss_top_rate=-0.1),
        dict(goss_top_rate=0.5, goss_other_rate=0.0),
        dict(goss_top_rate=0.6, goss_other_rate=0.4),
        dict(goss_other_rate=1.0),
        dict(goss_other_rate=-0.1),
    ):
        with pytest.raises(ValueError):
            GbdtParams(**bad)
    for name, value in (
        ("num_trees", 2.5),
        ("max_leaves", 3.5),
        ("min_samples_leaf", 2.0),
        ("num_bins", 16.5),
        ("num_bins", True),
    ):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GbdtParams(**{name: value})


def test_train_priors_are_log_frequencies():
    train = sample_set([0.0, 0.1, 0.2, 1.0], [1, 1, 1, 2])
    model = gbdt_train(
        train, GbdtParams(num_trees=1, min_samples_leaf=1, **NO_GOSS)
    )
    assert np.allclose(model.priors, np.log([0.75, 0.25]), atol=1e-12)


def test_train_accuracy_two_gaussians_goss_on_and_off():
    train = two_gaussian_set(250, separation=4.0, seed=100)
    base = dict(num_trees=30, max_leaves=7, min_samples_leaf=5, num_bins=32)
    for goss in (
        dict(goss_top_rate=0.2, goss_other_rate=0.1),
        NO_GOSS,
    ):
        model = gbdt_train(train, GbdtParams(**base, **goss))
        accuracy = float(np.mean(gbdt_predict(model, train.features) == train.labels))
        assert accuracy >= 0.95


def test_train_loss_monotone_without_goss():
    train = two_gaussian_set(100, separation=2.0, seed=101)
    params = GbdtParams(
        num_trees=12, max_leaves=5, min_samples_leaf=5, num_bins=16, **NO_GOSS
    )
    model = gbdt_train(train, params)
    onehot = (train.labels[:, None] == model.classes[None, :]).astype(np.float64)
    losses = round_losses(model, train.features, onehot)
    assert len(losses) == 13
    for before, after in zip(losses, losses[1:]):
        assert after <= before + 1e-9


def test_train_deterministic():
    train = two_gaussian_set(60, separation=2.0, seed=102)
    params = GbdtParams(num_trees=5, max_leaves=5, min_samples_leaf=3, num_bins=16)
    m1 = gbdt_train(train, params)
    m2 = gbdt_train(train, params)
    x = SplitMix64(103).normal_matrix(200, 2)
    assert np.array_equal(m1.decision_scores(x), m2.decision_scores(x))



def test_train_goss_draws_from_the_seed_argument():
    train = two_gaussian_set(60, separation=2.0, seed=102)
    params = GbdtParams(num_trees=5, max_leaves=5, min_samples_leaf=3, num_bins=16)
    assert params.goss_top_rate > 0
    trees = [gbdt_train(train, params, seed=seed).to_dict()["trees"] for seed in (1, 1, 2)]
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


def test_train_goss_note_counts_the_rows_kept():
    train = sample_set(np.linspace(0.0, 1.0, 12), [1] * 6 + [2] * 6)
    params = GbdtParams(num_trees=1, max_leaves=2, min_samples_leaf=1, num_bins=4)
    rows, _ = _goss_sample(np.ones((12, 2)), params, SplitMix64(0))
    assert len(rows) == 3
    assert gbdt_train(train, params).warnings == ["GOSS keeps 3 of 12 rows per round"]

def test_train_goss_small_sample_notes_warning():
    train = sample_set(
        np.linspace(0.0, 1.0, 10), [1] * 5 + [2] * 5
    )
    params = GbdtParams(
        num_trees=1, max_leaves=2, min_samples_leaf=1, num_bins=4,
        goss_top_rate=0.2, goss_other_rate=0.1,
    )
    model = gbdt_train(train, params)
    assert model.warnings
    assert "GOSS" in model.warnings[0]


def test_train_on_float32_features_matches_their_float64_copy():
    # A SampleSet keeps float32 features; the bin edges are the float64
    # copy's, and so is every tree.
    train = five_class_set(30, seed=122)
    narrow = SampleSet(train.features.astype(np.float32), train.labels, train.pixel_indices)
    params = GbdtParams(num_trees=3, max_leaves=5, min_samples_leaf=2, num_bins=8)
    wide = SampleSet(narrow.features.astype(np.float64), train.labels, train.pixel_indices)
    assert gbdt_train(narrow, params, seed=1).to_dict() == gbdt_train(wide, params, seed=1).to_dict()


def test_train_three_classes_structure():
    rng = SplitMix64(104)
    features = rng.normal_matrix(90, 2)
    labels = np.repeat([1, 4, 9], 30)
    features[labels == 4] += 3.0
    features[labels == 9] -= 3.0
    train = sample_set(features, labels)
    params = GbdtParams(num_trees=4, max_leaves=4, min_samples_leaf=2, num_bins=16, **NO_GOSS)
    model = gbdt_train(train, params)
    assert list(model.classes) == [1, 4, 9]
    assert len(model.trees) == 4
    assert all(len(rt) == 3 for rt in model.trees)
    accuracy = float(np.mean(gbdt_predict(model, features) == labels))
    assert accuracy >= 0.95


def test_train_matches_reference_loop():
    # gbdt_train against a loop built from its parts, with scores
    # updated by a per-row tree walk: every tree array must be equal.
    n = 150
    features = grid_features(n, 3, seed=110)
    labels = np.repeat([1, 2, 3], 50)
    features[labels == 2, 0] += 1.0
    features[labels == 3, 1] -= 1.0
    params = GbdtParams(
        num_trees=5, max_leaves=6, min_samples_leaf=3, num_bins=8,
        goss_top_rate=0.3, goss_other_rate=0.3,
    )
    edges, binned = _bin_features(features, params.num_bins)
    on_edge = sum(int(np.isin(features[:, f], e).sum()) for f, e in enumerate(edges))
    assert on_edge > features.size // 2
    model = gbdt_train(sample_set(features, labels), params, seed=4)
    assert len(model.trees) == 5 and all(len(r) == 3 for r in model.trees)
    assert sum(t.n_leaves for r in model.trees for t in r) > 2 * 15

    onehot = np.eye(3)[labels - 1]
    scores = np.tile(np.log(onehot.mean(axis=0)), (n, 1))
    rng = SplitMix64(4)
    for round_trees in model.trees:
        grad, hess = softmax_gradients(scores, onehot)
        rows, amplify = _goss_sample(grad, params, rng)
        assert len(rows) < n
        for c, got in enumerate(round_trees):
            g = np.zeros(n)
            h = np.zeros(n)
            g[rows] = grad[rows, c] * amplify
            h[rows] = hess[rows, c] * amplify
            tree, _ = grow(binned.T, edges, g, h, rows, params)
            for name in ("feature", "threshold", "left", "right", "value"):
                assert np.array_equal(getattr(got, name), getattr(tree, name)), name
            scores[:, c] += tree_walk(tree, features)


# --------------------------------------------------------------------- pool


def five_class_set(n_per_class, seed):
    rng = SplitMix64(seed)
    labels = np.repeat([1, 2, 3, 4, 5], n_per_class)
    features = rng.normal_matrix(len(labels), 3)
    features[:, 0] += labels
    return sample_set(features, labels)


@pytest.mark.parametrize(
    "n_per_class, goss, rows_kept",
    [(40, {}, 60), (40, NO_GOSS, 200), (1, {}, 1)],
    ids=["goss", "no-goss", "goss-keeps-1-row"],
)
def test_train_identical_for_any_cpu_count(force_cpus, n_per_class, goss, rows_kept):
    # A round's 5 class trees land in 1 to 4 bins, and each grows from
    # the round's gathered rows wherever it grows.
    train = five_class_set(n_per_class, seed=120)
    params = GbdtParams(num_trees=4, max_leaves=5, min_samples_leaf=1, num_bins=8, **goss)
    rng = SplitMix64(0)
    assert len(_goss_sample(np.ones((len(train), 5)), params, rng)[0]) == rows_kept
    models = []
    for cpus in (1, 2, 3, 4):
        force_cpus(cpus)
        models.append(gbdt_train(train, params, seed=5).to_dict())
        assert (pool._current is None) == (cpus == 1)
    assert models[1] == models[0]
    assert models[2] == models[0]
    assert models[3] == models[0]


def test_train_holds_few_score_sized_arrays_while_its_workers_grow_trees(force_cpus):
    # With a pool, the caller holds the n x C float64 scores and one-hot
    # labels for the whole run; a round adds the probabilities, turned
    # into gradients in place, the hessians and GOSS's |gradient| sums,
    # and ends them before the next round's. The workers send back one
    # byte a row per tree, its leaf node. Measured: 6.7 arrays of n x C
    # float64 here, so 8.5 leaves a margin of a quarter.
    force_cpus(2)
    n, classes = 3000, 9
    labels = np.arange(n) % classes + 1
    features = SplitMix64(123).normal_matrix(n, 20)
    features[:, 0] += labels
    train = sample_set(features, labels)
    params = GbdtParams(num_trees=4, max_leaves=8, min_samples_leaf=5, num_bins=16)
    gbdt_train(train, GbdtParams(num_trees=1), seed=1)  # forks the pool
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gbdt_train(train, params, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * n * classes * 8


def _train_in_child(train, params):
    """gbdt_train's model, and the processes the call left running."""
    model = gbdt_train(train, params, seed=5)
    return model.to_dict(), len(multiprocessing.active_children())


def test_train_in_a_daemonic_pool_worker_runs_serially(force_cpus):
    # A daemonic process may not start children: the worker grows every
    # class tree itself and returns the model a pool would.
    force_cpus(2)
    train = five_class_set(40, seed=121)
    params = GbdtParams(num_trees=3, max_leaves=5, min_samples_leaf=2, num_bins=8)
    expected = gbdt_train(train, params, seed=5).to_dict()
    assert pool._current is not None
    pool._drop_pool()
    with multiprocessing.get_context("fork").Pool(1) as workers:
        model, children = workers.apply_async(_train_in_child, (train, params)).get(timeout=60)
    assert model == expected
    assert children == 0


# --------------------------------------------------------------- prediction


def test_predict_zero_trees_majority_prior():
    model = GbdtModel(
        classes=np.array([1, 2], dtype=np.int64),
        priors=np.log([0.75, 0.25]),
        trees=[],
        params=GbdtParams(),
        n_features=2,
    )
    pred = gbdt_predict(model, np.zeros((5, 2)))
    assert (pred == 1).all()


def test_predict_single_leaf_override():
    # One tree whose class-2 leaf adds +10: every row flips to class 2.
    leaf = lambda v: tree_of([-1], [0.0], [-1], [-1], [v])
    model = GbdtModel(
        classes=np.array([1, 2], dtype=np.int64),
        priors=np.log([0.75, 0.25]),
        trees=[[leaf(0.0), leaf(10.0)]],
        params=GbdtParams(),
        n_features=3,
    )
    pred = gbdt_predict(model, SplitMix64(105).normal_matrix(4, 3))
    assert (pred == 2).all()


def test_predict_dimension_mismatch():
    train = two_gaussian_set(20, separation=3.0, seed=106)
    model = gbdt_train(train, GbdtParams(num_trees=1, min_samples_leaf=1, num_bins=8, **NO_GOSS))
    with pytest.raises(ValueError, match="^x has 5 columns but the model was fit on 2$"):
        gbdt_predict(model, np.zeros((2, 5)))


# ------------------------------------------------------------------ routing


def test_predict_rows_at_threshold_go_right():
    # Root splits feature 1 at 0.5; its right child splits feature 0 at -2.
    tree = tree_of(
        feature=[1, -1, 0, -1, -1],
        threshold=[0.5, 0.0, -2.0, 0.0, 0.0],
        left=[1, -1, 3, -1, -1],
        right=[2, -1, 4, -1, -1],
        value=[0.0, 1.0, 0.0, 2.0, 3.0],
    )
    x = np.array([
        [9.0, 0.5],  # at the root threshold: right, then 9 >= -2: right
        [-2.0, 0.5],  # at both thresholds: right, right
        [-2.5, 0.5],  # right, then left
        [0.0, np.nextafter(0.5, 0.0)],  # just below the root threshold: left
    ])
    got = tree.predict_columns(np.ascontiguousarray(x.T))
    assert np.array_equal(got, [3.0, 3.0, 2.0, 1.0])
    assert np.array_equal(got, tree_walk(tree, x))


def test_predict_single_leaf_tree_and_zero_rows():
    leaf = tree_of([-1], [0.0], [-1], [-1], [0.25])
    assert np.array_equal(leaf.predict_columns(np.zeros((2, 3))), [0.25] * 3)
    stump = tree_of([0, -1, -1], [1.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, -1.0, 1.0])
    for tree in (leaf, stump):
        out = tree.predict_columns(np.zeros((2, 0)))
        assert out.shape == (0,) and out.dtype == np.float64


@pytest.mark.parametrize("max_leaves", [2, 5, 17])
def test_predict_matches_tree_walk_on_grown_trees(max_leaves):
    rng = SplitMix64(111 + max_leaves)
    features = grid_features(300, 4, seed=112)
    params = GbdtParams(
        num_trees=1, max_leaves=max_leaves, min_samples_leaf=4, num_bins=16, **NO_GOSS
    )
    edges, binned = _bin_features(features, params.num_bins)
    tree, _ = grow(
        binned.T, edges, rng.normals(300), np.full(300, 0.25), np.arange(300), params
    )
    assert tree.n_leaves == max_leaves
    assert (features[:, tree.feature[0]] == tree.threshold[0]).any()  # ties at the root
    # New rows on the same grid, plus one row per inner node that sits
    # exactly at that node's threshold.
    x = grid_features(200, 4, seed=113)
    at = np.repeat(x[:1], tree.n_nodes, axis=0)
    inner = tree.feature >= 0
    at[np.nonzero(inner)[0], tree.feature[inner]] = tree.threshold[inner]
    for rows in (features, x, at):
        got = tree.predict_columns(np.ascontiguousarray(rows.T))
        assert np.array_equal(got, tree_walk(tree, rows))


@pytest.mark.parametrize("max_leaves, dtype", [(2, np.uint8), (128, np.uint8), (129, np.uint16)])
def test_leaves_route_rows_to_leaf_nodes_in_the_smallest_type(max_leaves, dtype):
    # 128 leaves make 255 nodes, the most a byte numbers; 129 make 257.
    features = SplitMix64(116).normal_matrix(2000, 3)
    params = GbdtParams(num_trees=1, max_leaves=max_leaves, min_samples_leaf=1, **NO_GOSS)
    edges, binned = _bin_features(features, params.num_bins)
    g = SplitMix64(117).normals(2000)
    tree, _ = grow(binned.T, edges, g, np.full(2000, 0.25), np.arange(2000), params)
    assert tree.n_leaves == max_leaves
    columns = np.ascontiguousarray(features.T)
    leaves = tree.leaves(columns)
    assert leaves.dtype == dtype
    assert (tree.feature[leaves] == -1).all()
    assert np.array_equal(tree.predict_columns(columns), tree.value[leaves])
    assert np.array_equal(tree.value[leaves], tree_walk(tree, features))


def test_decision_scores_sum_tree_predictions_round_by_round():
    train = two_gaussian_set(80, separation=2.0, seed=114)
    params = GbdtParams(num_trees=6, max_leaves=6, min_samples_leaf=3, num_bins=16)
    model = gbdt_train(train, params)
    x = np.vstack([SplitMix64(115).normal_matrix(300, 2), train.features])
    scores = np.tile(model.priors, (len(x), 1))
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            scores[:, c] += tree.predict_columns(np.ascontiguousarray(x.T))
    assert np.array_equal(model.decision_scores(x), scores)


def test_model_dict_round_trip():
    train = two_gaussian_set(50, separation=2.5, seed=107)
    params = GbdtParams(num_trees=6, max_leaves=6, min_samples_leaf=3, num_bins=16)
    model = gbdt_train(train, params)
    back = GbdtModel.from_dict(model.to_dict())
    x = SplitMix64(108).normal_matrix(1000, 2)
    assert np.array_equal(gbdt_predict(model, x), gbdt_predict(back, x))
    assert np.array_equal(model.decision_scores(x), back.decision_scores(x))
    assert back.params == model.params
    assert back.to_dict() == model.to_dict()
    assert back.classes.dtype == np.int64
    for tree in (t for round_trees in back.trees for t in round_trees):
        assert tree.feature.dtype == tree.left.dtype == tree.right.dtype == np.int32
        assert tree.threshold.dtype == tree.value.dtype == np.float64


@pytest.mark.parametrize("field", ["feature", "left", "right"])
@pytest.mark.parametrize("value", [1.5, True, "1", None])
def test_tree_dict_rejects_a_non_integer_index(field, value):
    # An integral float is an integer; a fraction, a bool or a string is not,
    # though numpy would read 1.5 and true as 1.
    d = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
         "right": [2, -1, -1], "value": [0.0, -1.0, 1.0]}
    assert Tree.from_dict(dict(d, **{field: [1.0, -1, -1]})).to_dict()[field] == [1, -1, -1]
    d[field] = [value, -1, -1]
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        Tree.from_dict(d)


def test_model_dict_rejects_unknown_schema():
    train = sample_set([0.0, 1.0], [1, 2])
    model = gbdt_train(train, GbdtParams(num_trees=1, min_samples_leaf=1, num_bins=2, **NO_GOSS))
    d = model.to_dict()
    d["schema"] = "nope"
    with pytest.raises(ValueError):
        GbdtModel.from_dict(d)

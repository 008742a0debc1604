"""Tests for the SMO-trained one-vs-one RBF SVM."""

import functools
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import (
    active_set_dual_max,
    dual_objective,
    lattice_dual_max,
    rbf_cross,
    rbf_gram,
    smo_reference,
)
from hsikit.classify import _pool as pool
from hsikit.classify import svm
from hsikit.classify.svm import (
    BinarySvm,
    SvmGrid,
    SvmModel,
    SvmParams,
    _smo_solve,
    grid_search_cv,
    svm_predict,
    svm_train,
)
from hsikit.errors import DegenerateDataError
from hsikit.hsi_data import SampleSet
from hsikit.rng import SplitMix64


def sample_set(features, labels):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    return SampleSet(
        features=features,
        labels=labels,
        pixel_indices=np.arange(len(labels), dtype=np.int64),
    )


def two_blob_set(n_per_class, separation, seed):
    rng = SplitMix64(seed)
    a = rng.normal_matrix(n_per_class, 2)
    b = rng.normal_matrix(n_per_class, 2) + separation
    return sample_set(np.vstack([a, b]), [1] * n_per_class + [2] * n_per_class)


# ---------------------------------------------------------------- smo core


def smo_dual_value(x, y, params):
    alpha, *_ = _smo_solve(np.asarray(x, float), np.asarray(y, float), params)
    q = (np.outer(y, y)) * rbf_gram(np.asarray(x, float), params.gamma)
    return dual_objective(alpha, q), alpha


def test_smo_separable_pair():
    params = SvmParams(c=10.0, gamma=1.0, tolerance=1e-6)
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([1.0, -1.0])
    alpha, bias, n_iter, converged, violation = _smo_solve(x, y, params)
    assert converged
    assert violation <= params.tolerance
    # Equality constraint and box bounds.
    assert abs(alpha @ y) < 1e-12
    assert (alpha >= 0.0).all() and (alpha <= params.c).all()


def test_smo_matches_exact_optimum_on_small_problems():
    # Independent oracle pair: active-set enumeration is exact; the
    # lattice maximizer must agree with it before it judges SMO.
    rng = SplitMix64(500)
    for trial in range(10):
        n = 4 + trial % 3
        x = rng.normal_matrix(n, 2)
        y = np.where(rng.uniforms(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        c = 1.0 + 4.0 * rng.uniforms(1)[0]
        gamma = 0.4 + rng.uniforms(1)[0]
        q = np.outer(y, y) * rbf_gram(x, gamma)
        exact = active_set_dual_max(q, y, c)
        lattice, _ = lattice_dual_max(q, y, c)
        assert abs(lattice - exact) <= 1e-6 * max(1.0, abs(exact))
        params = SvmParams(c=c, gamma=gamma, tolerance=1e-8, max_iter=200_000)
        value, alpha = smo_dual_value(x, y, params)
        assert abs(value - exact) <= 1e-4 * max(1.0, abs(exact))
        assert abs(alpha @ y) < 1e-9
        assert (alpha >= -1e-12).all() and (alpha <= c + 1e-12).all()


def test_smo_xor_dual_optimum():
    # XOR at C=600, gamma=0.5: all four points end up support vectors.
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    params = SvmParams(c=600.0, gamma=0.5, tolerance=1e-8, max_iter=200_000)
    value, alpha = smo_dual_value(x, y, params)
    q = np.outer(y, y) * rbf_gram(x, 0.5)
    exact = active_set_dual_max(q, y, 600.0)
    assert abs(value - exact) <= 1e-6 * max(1.0, abs(exact))
    assert (alpha > 0.0).all()


def test_smo_kkt_violation_reported():
    x = SplitMix64(501).normal_matrix(30, 3)
    y = np.where(SplitMix64(502).uniforms(30) < 0.5, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    params = SvmParams(c=5.0, gamma=0.7, tolerance=1e-5, max_iter=100_000)
    alpha, bias, n_iter, converged, violation = _smo_solve(x, y, params)
    assert converged
    # Recompute the violation from scratch.
    k = rbf_gram(x, params.gamma)
    grad = (np.outer(y, y) * k) @ alpha - 1.0
    score = -y * grad
    pos = y > 0
    up = (pos & (alpha < params.c)) | (~pos & (alpha > 0.0))
    low = (pos & (alpha > 0.0)) | (~pos & (alpha < params.c))
    fresh = score[up].max() - score[low].min()
    assert fresh <= params.tolerance + 1e-9
    assert abs(fresh - violation) <= 1e-9


def test_smo_iteration_cap():
    x = SplitMix64(503).normal_matrix(40, 2)
    y = np.where(SplitMix64(504).uniforms(40) < 0.5, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    # A loose cap leaves free vectors; a tiny C with one step puts both
    # working-set variables at the bound, so no vector is free.
    for c, max_iter, expect_free in ((100.0, 3, True), (1e-3, 1, False)):
        params = SvmParams(c=c, gamma=0.5, tolerance=1e-12, max_iter=max_iter)
        alpha, bias, n_iter, converged, violation = _smo_solve(x, y, params)
        assert not converged
        assert n_iter == max_iter
        assert violation > 0.0
        # The reported violation and bias follow from alpha at the cap.
        grad = (np.outer(y, y) * rbf_gram(x, params.gamma)) @ alpha - 1.0
        score = -y * grad
        pos = y > 0
        up = (pos & (alpha < c)) | (~pos & (alpha > 0.0))
        low = (pos & (alpha > 0.0)) | (~pos & (alpha < c))
        assert abs(score[up].max() - score[low].min() - violation) <= 1e-9
        free = (alpha > 0.0) & (alpha < c)
        assert free.any() == expect_free
        if expect_free:
            expected_bias = score[free].mean()
        else:
            expected_bias = (score[up].max() + score[low].min()) / 2.0
        assert abs(bias - expected_bias) <= 1e-9


def test_train_converging_on_the_last_allowed_iteration_is_converged():
    # Converged means the KKT gap closed, not that the cap was not
    # reached: a cap equal to the solve's own iteration count changes
    # nothing, and leaves no iteration-cap note.
    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal(0.0, 1.0, (60, 3)), rng.normal(1.5, 1.0, (60, 3))])
    train = sample_set(x, np.repeat([1, 2], 60))
    params = SvmParams(c=10.0, gamma=0.5)
    (machine,) = svm_train(train, params).machines
    capped = svm_train(train, replace(params, max_iter=machine.n_iter))
    assert machine.converged
    assert [m.to_dict() for m in capped.machines] == [machine.to_dict()]
    assert capped.warnings == []


def test_smo_column_recompute_path_matches_full_gram(monkeypatch):
    # With room for only the two columns of a step, almost every column
    # is evicted and recomputed; the recomputed columns are bit-identical,
    # so the solve is exactly the one under the default budget.
    x = SplitMix64(505).normal_matrix(300, 3)
    y = np.where(x[:, 0] + 0.5 * SplitMix64(506).normals(300) > 0, 1.0, -1.0)
    params = SvmParams(c=10.0, gamma=0.5, tolerance=1e-3)
    alpha, bias, n_iter, converged, violation = _smo_solve(x, y, params)
    monkeypatch.setattr("hsikit.classify.svm._KERNEL_CACHE_BYTES", 2 * 8 * len(y))
    alpha_col, bias_col, n_iter_col, converged_col, violation_col = _smo_solve(x, y, params)
    assert converged and converged_col
    assert n_iter_col == n_iter
    free = (alpha > 0.0) & (alpha < params.c)
    assert free.any() and (alpha == params.c).any()
    assert np.array_equal(alpha_col, alpha)
    assert bias_col == bias and violation_col == violation
    # Against the full Gram matrix: the violation and the bias follow
    # from the returned alpha.
    grad = (np.outer(y, y) * rbf_cross(x, x, params.gamma)) @ alpha - 1.0
    score = -y * grad
    pos = y > 0
    up = (pos & (alpha < params.c)) | (~pos & (alpha > 0.0))
    low = (pos & (alpha > 0.0)) | (~pos & (alpha < params.c))
    assert abs(score[up].max() - score[low].min() - violation) <= 1e-9
    assert abs(score[free].mean() - bias) <= 1e-9


@pytest.mark.parametrize(
    "case", ["rows-at-c", "iteration-cap", "duplicate-rows", "two-column-cache", "shrinking"]
)
def test_smo_matches_reference_loop(case, monkeypatch):
    # The solver keeps masked score arrays and Python scalars; the
    # reference keeps one score array and numpy scalars. Each step does
    # the same IEEE operations in the same order, so every returned
    # value is equal, not merely close. Shrinking keeps that as long as
    # no shrunk row comes back, as on this problem at this cadence.
    x = SplitMix64(505).normal_matrix(300, 3)
    y = np.where(x[:, 0] + 0.5 * SplitMix64(506).normals(300) > 0, 1.0, -1.0)
    params = SvmParams(c=10.0, gamma=0.5, tolerance=1e-3)
    if case == "iteration-cap":
        params = replace(params, max_iter=50)
    elif case == "duplicate-rows":
        # A copy of the first negative row, labelled +1, goes first: the
        # first step picks that pair, whose quad is 0.
        k = int(np.argmax(y < 0))
        x = np.vstack([x[k : k + 1], x])
        y = np.concatenate([[1.0], y])
    elif case == "two-column-cache":
        monkeypatch.setattr("hsikit.classify.svm._KERNEL_CACHE_BYTES", 2 * 8 * len(y))
    elif case == "shrinking":
        monkeypatch.setattr(svm, "_SHRINK_ROWS", len(y))
        monkeypatch.setattr(svm, "_SHRINK_EVERY", 50)
    expected = smo_reference(x, y, params)
    alpha, bias, n_iter, converged, violation = _smo_solve(x, y, params)
    assert np.array_equal(alpha, expected[0])
    assert bias == expected[1]
    assert n_iter == expected[2]
    assert converged == expected[3]
    assert violation == expected[4]
    assert (alpha == params.c).any()
    assert converged == (case != "iteration-cap")


@pytest.mark.parametrize("max_iter", [100_000, 1000])
def test_smo_shrunk_rows_that_come_back_are_solved_and_shrunk_again(max_iter, monkeypatch):
    # At this seed the reference loop selects a row the solver has shrunk,
    # so the paths part: a shrunk row violates once the active rows
    # converge, so the solve goes on over all rows and shrinks again on
    # the same clock; a cap of 1000 stops it while rows are still shrunk.
    # Either way the violation and the bias it returns must follow from
    # alpha over the full Gram matrix.
    x = SplitMix64(511).normal_matrix(300, 3)
    y = np.where(x[:, 0] + 0.5 * SplitMix64(512).normals(300) > 0, 1.0, -1.0)
    params = SvmParams(c=10.0, gamma=0.5, tolerance=1e-3, max_iter=max_iter)
    monkeypatch.setattr(svm, "_SHRINK_ROWS", len(y))
    monkeypatch.setattr(svm, "_SHRINK_EVERY", 50)
    sizes = []  # the maxsize of each kernel cache the solve makes, in order

    def lru_cache(maxsize):
        sizes.append(maxsize)
        return functools.lru_cache(maxsize=maxsize)

    monkeypatch.setattr(svm, "functools", SimpleNamespace(lru_cache=lru_cache))
    result = _smo_solve(x, y, params)
    alpha, bias, n_iter, converged, violation = result
    assert converged == (n_iter < max_iter) == (max_iter > 1000)
    # A cache's maxsize falls as its rows grow, and only a rebuild gives
    # rows back, so a smaller maxsize after a larger one is a shrink after
    # a come-back.
    assert any(b < a for a, b in zip(sizes, sizes[1:])) == converged
    assert converged == (violation <= params.tolerance)
    assert not np.array_equal(alpha, smo_reference(x, y, params)[0])
    grad = (np.outer(y, y) * rbf_cross(x, x, params.gamma)) @ alpha - 1.0
    score = -y * grad
    pos = y > 0
    up = (pos & (alpha < params.c)) | (~pos & (alpha > 0.0))
    low = (pos & (alpha > 0.0)) | (~pos & (alpha < params.c))
    free = up & low
    assert free.any() and (alpha == params.c).any()
    assert abs(score[up].max() - score[low].min() - violation) <= 1e-9
    assert abs(score[free].mean() - bias) <= 1e-9
    # Evicted gathers and columns are recomputed bit for bit.
    monkeypatch.setattr(svm, "_KERNEL_CACHE_BYTES", 2 * 8 * len(y))
    recomputed = _smo_solve(x, y, params)
    assert np.array_equal(recomputed[0], alpha) and recomputed[1:] == result[1:]


def test_smo_memory_is_bounded_below_the_gram_matrix():
    # A separable 2000-row pair touches few distinct kernel columns, so
    # the solve must hold far less than the n x n Gram matrix, with its
    # rows shrunk, their columns gathered and the shrunk scores rebuilt.
    n = 2000
    x = SplitMix64(505).normal_matrix(n, 5)
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    params = SvmParams(c=10.0, gamma=0.5)
    tracemalloc.start()
    try:
        _, _, n_iter, converged, _ = _smo_solve(x, y, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert converged
    assert n >= svm._SHRINK_ROWS and n_iter > svm._SHRINK_EVERY
    assert peak < n * n * 8 / 4


# ---------------------------------------------------------------- svm_train


def test_train_separable_pair_perfect():
    train = sample_set([[0.0, 0.0], [1.0, 1.0]], [1, 2])
    model = svm_train(train, SvmParams(c=10.0, gamma=1.0))
    pred = svm_predict(model, train.features)
    assert list(pred) == [1, 2]


def test_train_xor_perfect_accuracy():
    train = sample_set(
        [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
        [1, 1, 2, 2],
    )
    model = svm_train(train, SvmParams(c=600.0, gamma=0.5))
    pred = svm_predict(model, train.features)
    assert list(pred) == [1, 1, 2, 2]


def test_train_duals_within_box():
    train = two_blob_set(30, 2.0, seed=71)
    params = SvmParams(c=600.0, gamma=0.5)
    model = svm_train(train, params)
    for machine in model.machines:
        # dual_coef = alpha * y, so |dual_coef| is alpha.
        assert (np.abs(machine.dual_coef) <= params.c + 1e-9).all()
        assert (np.abs(machine.dual_coef) > 0.0).all()


def test_train_kkt_within_tolerance_per_machine():
    rng = SplitMix64(72)
    features = rng.normal_matrix(60, 3)
    labels = 1 + (rng.uniforms(60) * 3).astype(np.int64)
    labels[:3] = [1, 2, 3]
    features[labels == 2] += 1.5
    features[labels == 3] -= 1.5
    model = svm_train(sample_set(features, labels))
    assert len(model.machines) == 3
    for machine in model.machines:
        assert machine.converged
        assert machine.kkt_violation <= model.params.tolerance


def test_train_scaling_recorded():
    train = sample_set([[0.0, 10.0], [4.0, 30.0], [2.0, 20.0], [4.0, 10.0]], [1, 1, 2, 2])
    model = svm_train(train, SvmParams(c=1.0, gamma=0.5))
    assert np.allclose(model.feature_min, [0.0, 10.0])
    assert np.allclose(model.feature_range, [4.0, 20.0])
    # Constant feature: range forced to 1 to avoid division by zero.
    const = sample_set([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]], [1, 1, 2, 2])
    model = svm_train(const, SvmParams(c=1.0, gamma=0.5))
    assert model.feature_range[1] == 1.0


def test_train_and_predict_on_float32_features_match_their_float64_copy():
    # A SampleSet keeps float32 features. The scaling takes their range
    # in float64, so the model is the float64 copy's.
    labels = np.repeat([1, 2, 3], 20)
    x = (SplitMix64(31).normal_matrix(60, 3) * 7.3).astype(np.float32)
    x[labels == 2, 0] += 3.0
    params = SvmParams(c=10.0, gamma=0.5)
    model = svm_train(SampleSet(x, labels, np.arange(60)), params)
    assert model.to_dict() == svm_train(sample_set(x, labels), params).to_dict()
    assert np.array_equal(svm_predict(model, x), svm_predict(model, x.astype(np.float64)))


def test_train_single_class_rejected():
    with pytest.raises(DegenerateDataError):
        svm_train(sample_set([[0.0], [1.0]], [1, 1]))


def test_train_identical_rows_rejected(force_cpus):
    train = sample_set([[1.0, 2.0], [1.0, 2.0]], [1, 2])
    with pytest.raises(DegenerateDataError):
        svm_train(train)
    # Classes 1 and 2 are each constant, on different rows; 2 and 3 share
    # their one row, so the pair (2, 3) is the one named.
    features = [[0.0, 0.0], [0.0, 0.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]
    train = sample_set(features, [1, 1, 2, 3, 3])
    with pytest.raises(DegenerateDataError, match="^classes 2 and 3 have identical feature rows$"):
        svm_train(train)
    # Classes 1 and 3 share one row and 2 and 4 another. On 2 CPUs the
    # pair (2, 4) falls in the first bin and (1, 3) in the second; the
    # first degenerate pair in pair order is named on any CPU count.
    features = [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]
    train = sample_set(features, [1, 2, 3, 4, 1, 2])
    for cpus in (1, 2, 3):
        force_cpus(cpus)
        with pytest.raises(DegenerateDataError, match="^classes 1 and 3 have identical"):
            svm_train(train)


def test_train_stops_a_bin_at_its_first_degenerate_pair(force_cpus, monkeypatch):
    # Classes 1 and 3 share one row. The pair is named before any pair is
    # solved, on one CPU and on two. On two, each bin runs in a pool
    # worker, whose calls a count in this process would miss, so a solve
    # raises instead, and the pool hands its error back here.
    features = [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [3.0, 1.0], [0.5, 0.5], [2.0, 2.0]]
    train = sample_set(features, [1, 2, 3, 4, 2, 4])

    def solve(x, y, params):
        raise AssertionError(f"a pair of {len(y)} rows was solved")

    monkeypatch.setattr(svm, "_smo_solve", solve)
    for cpus in (1, 2):
        force_cpus(cpus)
        with pytest.raises(DegenerateDataError, match="^classes 1 and 3 have identical"):
            svm_train(train)


def test_train_param_validation():
    # Settings are checked when built, so svm_train never sees a bad one;
    # replace builds a new object, so each grid cell is checked too.
    for bad, message in (
        (dict(c=0.0), "c must be > 0, got 0.0"),
        (dict(gamma=-1.0), "gamma must be > 0, got -1.0"),
        (dict(gamma=float("nan")), "gamma must be > 0, got nan"),
        (dict(tolerance=0.0), "tolerance must be > 0, got 0.0"),
        (dict(max_iter=0), "max_iter must be >= 1, got 0"),
    ):
        for build in (SvmParams, lambda **kw: replace(SvmParams(), **kw)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(**bad)
    # A non-integral cap would never equal the iteration count.
    for value in (5.5, 5.0, True):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SvmParams(max_iter=value)


def test_train_iteration_cap_warns_in_model():
    train = two_blob_set(20, 0.5, seed=73)
    model = svm_train(train, SvmParams(c=600.0, gamma=0.5, tolerance=1e-12, max_iter=5))
    assert model.warnings
    assert "iteration cap" in model.warnings[0]
    assert not model.machines[0].converged


def test_train_deterministic():
    train = two_blob_set(25, 1.5, seed=74)
    m1 = svm_train(train)
    m2 = svm_train(train)
    for a, b in zip(m1.machines, m2.machines):
        assert np.array_equal(a.dual_coef, b.dual_coef)
        assert a.bias == b.bias
        assert a.n_iter == b.n_iter


# -------------------------------------------------------------- svm_predict


def test_predict_support_vectors_their_own_label():
    train = two_blob_set(20, 3.0, seed=75)
    model = svm_train(train, SvmParams(c=600.0, gamma=0.5))
    gamma = model.params.gamma
    for machine in model.machines:
        raw = machine.support_vectors * model.feature_range + model.feature_min
        pred = svm_predict(model, raw)
        sv = machine.support_vectors
        decided = machine.decision(sv, gamma, (sv * sv).sum(axis=1))
        # Squared norms computed once per predict bin give the same bits
        # as rbf_cross computing them per machine.
        expected = rbf_cross(sv, sv, gamma) @ machine.dual_coef + machine.bias
        assert np.array_equal(decided, expected)
        (wins_pos,) = svm._wins_pos([machine], sv, gamma)
        assert np.array_equal(wins_pos, expected > 0.0)
        for p, d, coef in zip(pred, decided, machine.dual_coef):
            # A margin support vector of the positive class sits at
            # decision >= +1; prediction must match its side.
            if coef > 0 and d >= 1.0 - 1e-6:
                assert p == machine.class_pos
            if coef < 0 and d <= -1.0 + 1e-6:
                assert p == machine.class_neg


def test_predict_unanimous_region():
    train = two_blob_set(20, 4.0, seed=76)
    model = svm_train(train, SvmParams(c=600.0, gamma=0.5))
    # Deep inside class 1's blob every pairwise machine agrees.
    center = train.features[train.labels == 1].mean(axis=0)
    assert svm_predict(model, center[None, :])[0] == 1


def test_predict_vote_tie_smallest_class():
    # Hand-built three-class model with a cyclic vote at the origin:
    # (2,5) votes 2, (2,7) votes 7, (5,7) votes 5. One vote each, so
    # the tie resolves to the smallest class id.
    sv = np.zeros((1, 2))
    tiny = np.array([1e-12])

    def machine(pos, neg, bias):
        return BinarySvm(
            class_pos=pos,
            class_neg=neg,
            support_vectors=sv,
            dual_coef=tiny,
            bias=bias,
            n_iter=1,
            converged=True,
            kkt_violation=0.0,
        )

    model = SvmModel(
        classes=np.array([2, 5, 7], dtype=np.int64),
        machines=[machine(2, 5, 1.0), machine(2, 7, -1.0), machine(5, 7, 1.0)],
        params=SvmParams(),
        feature_min=np.zeros(2),
        feature_range=np.ones(2),
    )
    assert svm_predict(model, np.zeros((1, 2)))[0] == 2


def test_predict_dimension_mismatch():
    train = sample_set([[0.0, 1.0], [1.0, 0.0]], [1, 2])
    model = svm_train(train, SvmParams(c=1.0, gamma=0.5))
    with pytest.raises(ValueError, match="^x has 3 columns but the model was fit on 2$"):
        svm_predict(model, np.zeros((1, 3)))


@pytest.mark.parametrize("case", ["several-blocks", "one-row-blocks", "no-test-rows"])
def test_blocked_decisions_match_the_whole_kernel(case, monkeypatch, force_cpus):
    # A block of a few rows may round a decision differently from the
    # whole kernel matrix, by a few ulps; no prediction moves.
    elements, n_test = {
        "several-blocks": (100, 200),
        "one-row-blocks": (16, 200),
        "no-test-rows": (100, 0),
    }[case]
    force_cpus(1)
    model = svm_train(nine_class_set(90), SvmParams(c=10.0, gamma=0.5))
    x = SplitMix64(91).normal_matrix(n_test, 3) * 6.0 + 10.0
    expected = svm_predict(model, x)
    monkeypatch.setattr(svm, "_KERNEL_BLOCK_BYTES", 8 * elements)
    n_sv = [len(machine.dual_coef) for machine in model.machines]
    rows = [max(1, elements // n) for n in n_sv]
    if case == "several-blocks":
        # Every machine takes several blocks; some end in a partial one.
        assert all(r < n_test for r in rows) and any(n_test % r for r in rows)
    elif case == "one-row-blocks":
        # These machines hold more support vectors than a block.
        assert any(n > elements for n in n_sv)
    scaled = (x - model.feature_min) / model.feature_range
    gamma = model.params.gamma
    for machine in model.machines:
        decided = machine.decision(scaled, gamma, (scaled * scaled).sum(axis=1))
        whole = rbf_cross(scaled, machine.support_vectors, gamma) @ machine.dual_coef
        assert decided.shape == (n_test,)
        assert np.abs(decided - (whole + machine.bias)).max(initial=0.0) <= 1e-12
    assert np.array_equal(svm_predict(model, x), expected)


def test_predict_memory_is_bounded_by_the_block_budget(force_cpus):
    # 10,000 test rows against 349 support vectors: the whole kernel
    # matrix takes 26.6 MiB per temporary, a block's two buffers 1 MiB.
    force_cpus(1)
    model = svm_train(two_blob_set(200, 0.5, seed=7), SvmParams(c=1.0, gamma=0.5))
    (machine,) = model.machines
    assert len(machine.dual_coef) > 300
    x = SplitMix64(8).normal_matrix(10_000, 2)
    tracemalloc.start()
    try:
        svm_predict(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * svm._KERNEL_BLOCK_BYTES + 6 * x.nbytes


def test_predict_machine_without_support_vectors():
    # A tolerance above the first violation (2) stops SMO before its
    # first step: no alpha moves, and the machine decides by its bias.
    model = svm_train(two_blob_set(10, 3.0, seed=93), SvmParams(tolerance=3.0))
    (machine,) = model.machines
    assert len(machine.dual_coef) == 0
    x = SplitMix64(94).normal_matrix(20, 2)
    decided = machine.decision(x, model.params.gamma, (x * x).sum(axis=1))
    assert np.array_equal(decided, np.full(20, machine.bias))
    assert np.array_equal(svm_predict(model, x), np.full(20, machine.class_neg))


def test_model_dict_round_trip():
    train = two_blob_set(15, 2.0, seed=77)
    model = svm_train(train, SvmParams(c=10.0, gamma=0.3))
    back = SvmModel.from_dict(model.to_dict())
    x = SplitMix64(78).normal_matrix(50, 2)
    assert np.array_equal(svm_predict(model, x), svm_predict(back, x))
    assert back.params == model.params
    assert back.to_dict() == model.to_dict()
    assert back.classes.dtype == np.int64
    assert all(m.support_vectors.dtype == np.float64 for m in back.machines)


def test_model_dict_rejects_invalid_params():
    train = sample_set([[0.0], [1.0]], [1, 2])
    d = svm_train(train, SvmParams(c=1.0, gamma=1.0)).to_dict()
    d["params"]["max_iter"] = 0
    with pytest.raises(ValueError, match=r"^params\.max_iter must be >= 1, got 0$"):
        SvmModel.from_dict(d)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("feature_min", ["0.5", "1"], "feature_min must hold integers or floats, got dtype <U3"),
        ("feature_range", [1.0, np.nan], "feature_range contains non-finite values"),
        (
            "feature_range",
            [True, True],
            "feature_range must hold integers or floats, got dtype bool",
        ),
    ],
    ids=["strings", "nan", "bools"],
)
def test_model_dict_rejects_scaling_that_is_not_real_numbers(name, value, message):
    # numpy would read the strings and the bools as floats.
    d = svm_train(two_blob_set(5, 3.0, seed=79)).to_dict()
    d[name] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        SvmModel.from_dict(d)


def test_model_dict_rejects_unknown_schema():
    train = sample_set([[0.0], [1.0]], [1, 2])
    d = svm_train(train, SvmParams(c=1.0, gamma=1.0)).to_dict()
    d["schema"] = "hsikit/svm-model/0"
    with pytest.raises(ValueError):
        SvmModel.from_dict(d)


# ------------------------------------------------------------ grid search


def test_grid_single_cell():
    train = two_blob_set(10, 3.0, seed=80)
    c, gamma, table = grid_search_cv(train, SvmGrid(c=[2.0], gamma=[0.5], folds=2))
    assert (c, gamma) == (2.0, 0.5)
    assert len(table) == 1
    assert table[0]["c"] == 2.0 and table[0]["gamma"] == 0.5
    assert 0.0 <= table[0]["cv_accuracy"] <= 1.0


def test_grid_easy_set_prefers_default_cell():
    train = two_blob_set(20, 5.0, seed=81)
    c, gamma, table = grid_search_cv(train, SvmGrid(c=[600.0], gamma=[0.5], folds=5), seed=0)
    assert (c, gamma) == (600.0, 0.5)
    assert table[0]["cv_accuracy"] == 1.0


def test_grid_table_order_and_determinism():
    train = two_blob_set(12, 2.0, seed=82)
    out1 = grid_search_cv(train, SvmGrid(c=[10.0, 1.0], gamma=[1.0, 0.1], folds=3))
    out2 = grid_search_cv(train, SvmGrid(c=[1.0, 10.0], gamma=[0.1, 1.0], folds=3))
    # Grids are sorted internally, so argument order is irrelevant.
    assert out1 == out2
    cells = [(row["c"], row["gamma"]) for row in out1[2]]
    assert cells == [(1.0, 0.1), (1.0, 1.0), (10.0, 0.1), (10.0, 1.0)]


def test_grid_tie_breaks_to_smaller_c_then_gamma():
    train = two_blob_set(20, 6.0, seed=83)
    # Trivially easy data: every cell reaches accuracy 1.0.
    c, gamma, table = grid_search_cv(train, SvmGrid(c=[600.0, 1.0], gamma=[0.5, 0.1], folds=2))
    assert all(row["cv_accuracy"] == 1.0 for row in table)
    assert (c, gamma) == (1.0, 0.1)


def test_grid_reduces_folds_with_warning():
    features = np.array([[0.0], [0.1], [0.2], [1.0], [1.1], [1.2], [1.3]])
    train = sample_set(features, [1, 1, 1, 2, 2, 2, 2])
    with pytest.warns(UserWarning, match="reducing folds"):
        grid_search_cv(train, SvmGrid(c=[1.0], gamma=[0.5], folds=5))


def test_grid_degenerate_inputs():
    grid = SvmGrid(c=[1.0], gamma=[0.5])
    single = sample_set([[0.0], [1.0]], [1, 1])
    with pytest.raises(DegenerateDataError):
        grid_search_cv(single, grid)
    starved = sample_set([[0.0], [1.0], [2.0]], [1, 1, 2])
    with pytest.raises(DegenerateDataError):
        grid_search_cv(starved, grid)


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(c=[]), "c must be a non-empty list, got []"),
        (dict(gamma=[]), "gamma must be a non-empty list, got []"),
        (dict(c=5.0), "c must be a non-empty list, got 5.0"),
        (dict(gamma=(0.5,)), "gamma must be a non-empty list, got (0.5,)"),
        (dict(c="10"), "c must be a non-empty list, got '10'"),
        (dict(folds=1), "folds must be >= 2, got 1"),
        (dict(folds=2.5), "folds must be an integer, got 2.5"),
        (dict(folds=True), "folds must be an integer, got True"),
        (dict(c=[10.0, 0.0]), "c must be > 0, got 0.0"),
        (dict(gamma=[-1]), "gamma must be > 0, got -1.0"),
        (dict(c=[float("nan")]), "c must be a finite number, got nan"),
        (dict(gamma=[0.5, float("nan")]), "gamma must be a finite number, got nan"),
        (dict(c=["x"]), "c must be a finite number, got 'x'"),
        (dict(gamma=[True]), "gamma must be a finite number, got True"),
    ],
    ids=[
        "c-empty", "gamma-empty", "c-number", "gamma-tuple", "c-string", "folds-1", "folds-2.5",
        "folds-true", "c-zero", "gamma-negative", "c-nan", "gamma-nan", "c-string-entry",
        "gamma-bool-entry",
    ],
)
def test_grid_rejects_a_bad_field(bad, message):
    # The grid's one rule: SvmGrid checks itself when built, and each
    # entry with SvmParams's rule.
    with pytest.raises(ValueError) as caught:
        SvmGrid(**bad)
    assert str(caught.value) == message


# ------------------------------------------------------------------- pool


def nine_class_set(seed):
    rng = SplitMix64(seed)
    blobs = [rng.normal_matrix(12 + 3 * k, 3) + 2.5 * k for k in range(9)]
    labels = [k + 1 for k, blob in enumerate(blobs) for _ in range(len(blob))]
    return sample_set(np.vstack(blobs), labels)


def test_train_and_predict_identical_for_any_cpu_count(force_cpus):
    # 36 pairs of 27 to 69 rows land in 1, 2, 3 or 5 bins; every pair
    # and machine runs the same code wherever it runs.
    train = nine_class_set(90)
    x = SplitMix64(91).normal_matrix(200, 3) * 6.0 + 10.0
    results = {}
    for cpus in (1, 2, 3, 5):
        force_cpus(cpus)
        model = svm_train(train, SvmParams(c=10.0, gamma=0.5))
        results[cpus] = (model.to_dict(), svm_predict(model, x).tolist())
    assert results[2] == results[1]
    assert results[3] == results[1]
    assert results[5] == results[1]


def uneven_set(seed):
    """Three classes of 3, 12 and 15 rows: five folds reduce to three."""
    rng = SplitMix64(seed)
    blobs = [rng.normal_matrix(n, 3) + 2.0 * k for k, n in enumerate((3, 12, 15))]
    labels = [k + 1 for k, blob in enumerate(blobs) for _ in range(len(blob))]
    return sample_set(np.vstack(blobs), labels)


@pytest.mark.parametrize(
    "train, folds, notes",
    [
        (nine_class_set(97), 3, []),
        (uneven_set(98), 5, ["reducing folds from 5 to 3 so every fold sees every class"]),
    ],
    ids=["plain", "reduced-folds"],
)
def test_grid_identical_for_any_cpu_count(force_cpus, train, folds, notes):
    # 18 (C, gamma, fold) fits are dealt into 1, 2, 3 or 5 bins,
    # and each fit solves its pairs serially wherever its bin runs. The
    # fold-reduction warning is raised once, here in the caller.
    results = {}
    for cpus in (1, 2, 3, 5):
        force_cpus(cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results[cpus] = grid_search_cv(
                train, SvmGrid(c=[1.0, 10.0, 100.0], gamma=[0.1, 1.0], folds=folds), seed=4
            )
        assert [str(w.message) for w in caught] == notes
        assert all(w.filename == __file__ for w in caught)
    assert results[2] == results[1]
    assert results[3] == results[1]
    assert results[5] == results[1]


def _pids(items):
    return [os.getpid() for _ in items]


def _tagged(items):
    return [(item, os.getpid()) for item in items]


def test_spread_deals_items_in_turn(force_cpus):
    # Bin b is items[b::3]: each bin runs whole in one of the pool's
    # workers, none in this process, and the results come back in item
    # order.
    force_cpus(3)
    items, pids = zip(*pool.spread(_tagged, list("abcdefg")))
    assert items == tuple("abcdefg")
    assert os.getpid() not in pids
    assert pids[0] == pids[3] == pids[6]
    assert pids[1] == pids[4]
    assert pids[2] == pids[5]


def _inner_pids(items):
    """For each item, the pid that ran it and the pids that ran a spread
    of two items inside it."""
    return [(os.getpid(), pool.spread(_pids, [0, 1])) for _ in items]


def test_spread_inside_a_workers_bin_runs_in_that_worker(monkeypatch, force_cpus):
    # A worker is forked from the pool's owner, so the spread inside its
    # bin runs there, serially, and submits nothing to the pool.
    force_cpus(3)
    pool.spread(_pids, [0, 1, 2])
    executor = pool._current[1]
    submitted = []
    submit = executor.submit
    monkeypatch.setattr(
        executor, "submit", lambda fn, *args: submitted.append(fn) or submit(fn, *args)
    )
    outer = pool.spread(_inner_pids, [0, 1, 2])
    assert submitted == [_inner_pids] * 3
    for worker, inner in outer:
        assert inner == [worker, worker]
        assert worker != os.getpid()


def _decisions(machines, x_scaled, gamma):
    sq_x = (x_scaled * x_scaled).sum(axis=1)
    return [machine.decision(x_scaled, gamma, sq_x) for machine in machines]


def test_blocked_decisions_identical_for_any_cpu_count(monkeypatch, force_cpus):
    # The budget is patched before each pool is forked, so the workers
    # cut the same blocks as this process and round alike.
    force_cpus(1)
    model = svm_train(nine_class_set(90), SvmParams(c=10.0, gamma=0.5))
    x = SplitMix64(91).normal_matrix(200, 3) * 6.0 + 10.0
    scaled = (x - model.feature_min) / model.feature_range
    monkeypatch.setattr(svm, "_KERNEL_BLOCK_BYTES", 8 * 16)
    results = {}
    for cpus in (1, 2, 3):
        force_cpus(cpus)
        decisions = pool.spread(_decisions, model.machines, scaled, model.params.gamma)
        results[cpus] = (np.array(decisions).tobytes(), svm_predict(model, x).tolist())
    assert results[2] == results[1]
    assert results[3] == results[1]


def test_pool_has_one_process_per_cpu(force_cpus):
    train = nine_class_set(92)
    for cpus in (3, 2, 1):
        force_cpus(cpus)
        svm_train(train)
        # A one-CPU run makes no pool at all.
        assert len(multiprocessing.active_children()) == (cpus if cpus > 1 else 0)
        assert (pool._current is None) == (cpus == 1)


# Makes a pool of argv[1] workers, prints their pids, then waits to be
# killed.
_OWNER = """
import multiprocessing, sys, time
from hsikit.classify import _pool as pool

n = int(sys.argv[1])
pool._cpu_count = lambda: n
pool.spread(sorted, list(range(n)))
print(*[worker.pid for worker in multiprocessing.active_children()], flush=True)
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _owner_killed_leaves_no_worker(tmp_path: Path, n_workers: int) -> None:
    """SIGKILL an owner of ``n_workers`` pool workers; assert they all end."""
    src = str(Path(pool.__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    owner = subprocess.Popen(
        [sys.executable, "-c", _OWNER, str(n_workers)],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True,
    )
    workers = []
    try:
        assert select.select([owner.stdout], [], [], 60)[0], "the owner printed no pids"
        workers = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(workers) == n_workers and owner.pid not in workers
        owner.kill()
        owner.wait()
        deadline = time.monotonic() + 5.0
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)], n_workers
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc/<pid>/stat")
def test_workers_end_when_their_owner_is_killed(tmp_path):
    # SIGKILL runs no cleanup in the owner: its workers must see it go,
    # each later worker holding the sentinels of the earlier ones open.
    for n_workers in (2, 4):
        _owner_killed_leaves_no_worker(tmp_path, n_workers)


def test_pool_outlives_a_change_of_cpu_count(monkeypatch, force_cpus):
    # The pool keeps the size it was made with: the bins follow the new
    # count, the same pool runs them, and every result stays the same.
    train = nine_class_set(96)
    force_cpus(1)
    expected = svm_train(train).to_dict()
    force_cpus(3)
    assert svm_train(train).to_dict() == expected
    executor = pool._current[1]
    for cpus in (2, 5, 3):
        monkeypatch.setattr(pool, "_cpu_count", lambda n=cpus: n)
        assert svm_train(train).to_dict() == expected
        assert pool._current[1] is executor
        assert len(multiprocessing.active_children()) == 3


def test_one_pair_runs_without_a_pool(force_cpus):
    force_cpus(2)
    svm_train(two_blob_set(10, 3.0, seed=93))
    assert pool._current is None


def _train_in_child(train):
    """svm_train's model, and the processes the call left running."""
    model = svm_train(train)
    return model.to_dict(), len(multiprocessing.active_children())


def _train_in_forked_child(train, conn):
    conn.send(_train_in_child(train) + (pool._current[0],))
    conn.close()


def test_train_in_a_daemonic_pool_worker_runs_serially(force_cpus):
    # A daemonic process may not start children: the worker solves every
    # pair itself and returns the model a pool would.
    force_cpus(2)
    train = nine_class_set(94)
    expected = svm_train(train).to_dict()
    pool._drop_pool()
    with multiprocessing.get_context("fork").Pool(1) as workers:
        model, children = workers.apply_async(_train_in_child, (train,)).get(timeout=60)
    assert model == expected
    assert children == 0


def test_train_in_a_child_forked_after_the_pool_runs_serially(force_cpus):
    # The owner's pool already fills the CPUs, so a child forked from it
    # starts none of its own.
    force_cpus(2)
    train = nine_class_set(95)
    expected = svm_train(train).to_dict()
    owner = pool._current[0]
    assert owner == os.getpid()
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_train_in_forked_child, args=(train, send))
    child.start()
    try:
        assert receive.poll(60), "the forked child returned nothing"
        model, children, pool_owner = receive.recv()
        child.join(timeout=60)
    finally:
        child.kill()
    assert child.exitcode == 0
    assert model == expected
    assert children == 0
    assert pool_owner == owner

"""Acceptance suite: nine gate criteria, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict
lines. Every criterion is self-contained and uses only fixed seeds, so
the whole suite is deterministic across machines.
"""

import json
import time
from pathlib import Path

import numpy as np

from _oracles import (
    active_set_dual_max,
    decaying_test_matrices,
    dual_objective,
    lattice_dual_max,
    mcnemar_exact_enumeration,
    rbf_gram,
)
from hsikit.classify.gbdt import (
    GbdtParams,
    gbdt_predict,
    gbdt_train,
    softmax_cross_entropy,
    softmax_gradients,
)
from hsikit.classify.svm import SvmParams, _smo_solve, svm_predict, svm_train
from hsikit.cli import main
from hsikit.dimred import fit_pca, fit_rpca, principal_angles, transform
from hsikit.evaluation import chi_square_sf, evaluate, mcnemar
from hsikit.hsi_data import (
    SampleSet,
    extract_labeled,
    save_cube,
    save_ground_truth,
    stratified_split,
)
from hsikit.linalg import RandomizedSvdParams, exact_svd, randomized_svd
from hsikit.rng import SplitMix64
from hsikit.synthetic import gaussian_scene


def _report(criterion: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_1_randomized_svd_accuracy():
    # 20 matrices, 500 x 200, spectrum 10 * 0.8^i: randomized_svd with
    # k=30, oversampling 10, 2 power iterations recovers the top 30
    # singular values within 1% relative error.
    worst = 0.0
    exact_seconds = 0.0
    randomized_seconds = 0.0
    for idx, a in decaying_test_matrices():
        t0 = time.perf_counter()
        reference = exact_svd(a, 30)
        exact_seconds += time.perf_counter() - t0
        t0 = time.perf_counter()
        approx = randomized_svd(
            a, RandomizedSvdParams(k=30, oversampling=10, power_iterations=2, seed=idx)
        )
        randomized_seconds += time.perf_counter() - t0
        rel = np.abs(approx.s - reference.s) / reference.s
        worst = max(worst, float(rel.max()))
    _report(
        1,
        worst <= 0.01,
        f"worst rel err {worst:.3e}; exact {exact_seconds:.2f}s, "
        f"randomized {randomized_seconds:.2f}s over 20 matrices",
    )


def test_criterion_2_pca_vs_rpca_subspaces():
    # The same 20 matrices, treated as pixel-by-band data: exact and
    # randomized PCA agree on the 20-dimensional principal subspace to
    # within 1e-2 radians in every principal angle.
    worst = 0.0
    for idx, x in decaying_test_matrices():
        exact = fit_pca(x, 20)
        rand = fit_rpca(x, 20, oversampling=10, power_iterations=2, seed=idx)
        angles = principal_angles(exact.components, rand.components)
        worst = max(worst, float(angles.max()))
    _report(2, worst <= 1e-2, f"worst principal angle {worst:.3e} rad")


def test_criterion_3_smo_reaches_dual_optimum():
    # 50 random 5-point binary problems: the SMO dual objective matches
    # a brute-force lattice maximizer to 1e-4. The lattice oracle is
    # itself cross-checked against exact active-set enumeration.
    worst_oracle_gap = 0.0
    worst_smo_gap = 0.0
    for trial in range(50):
        rng = SplitMix64(1000 + trial)
        x = rng.normal_matrix(5, 2)
        y = np.where(rng.uniforms(5) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0  # both classes present
        c = 1.0 + 4.0 * rng.uniforms(1)[0]
        gamma = 0.3 + 1.5 * rng.uniforms(1)[0]
        q = np.outer(y, y) * rbf_gram(x, gamma)
        exact = active_set_dual_max(q, y, c)
        lattice, _ = lattice_dual_max(q, y, c)
        worst_oracle_gap = max(worst_oracle_gap, abs(lattice - exact))
        params = SvmParams(c=c, gamma=gamma, tolerance=1e-8, max_iter=200_000)
        alpha, *_ = _smo_solve(x, y, params)
        smo = dual_objective(alpha, q)
        worst_smo_gap = max(worst_smo_gap, abs(smo - lattice))
    ok = worst_oracle_gap <= 1e-6 and worst_smo_gap <= 1e-4
    _report(
        3,
        ok,
        f"worst |smo - lattice| {worst_smo_gap:.3e}, "
        f"oracle cross-check gap {worst_oracle_gap:.3e}",
    )


def test_criterion_4_softmax_derivatives_match_finite_differences():
    # 20 random score matrices in [-2, 2]: analytic gradient and
    # diagonal hessian of the summed cross-entropy match central finite
    # differences to 1e-5 relative (floored at 0.01).
    worst = 0.0
    for trial in range(20):
        rng = SplitMix64(4000 + trial)
        scores = (rng.uniforms(12).reshape(4, 3) - 0.5) * 4.0
        labels = (rng.uniforms(4) * 3).astype(int)
        onehot = np.eye(3)[labels]
        grad, hess = softmax_gradients(scores, onehot)
        for i in range(4):
            for c in range(3):
                h1, h2 = 1e-4, 1e-3
                plus, minus = scores.copy(), scores.copy()
                plus[i, c] += h1
                minus[i, c] -= h1
                fd_grad = (
                    softmax_cross_entropy(plus, onehot)
                    - softmax_cross_entropy(minus, onehot)
                ) / (2.0 * h1)
                plus, minus = scores.copy(), scores.copy()
                plus[i, c] += h2
                minus[i, c] -= h2
                fd_hess = (
                    softmax_cross_entropy(plus, onehot)
                    - 2.0 * softmax_cross_entropy(scores, onehot)
                    + softmax_cross_entropy(minus, onehot)
                ) / h2**2
                worst = max(
                    worst,
                    abs(grad[i, c] - fd_grad) / max(abs(fd_grad), 0.01),
                    abs(hess[i, c] - fd_hess) / max(abs(fd_hess), 0.01),
                )
    _report(4, worst <= 1e-5, f"worst relative derivative error {worst:.3e}")


def test_criterion_5_mcnemar_exact_and_chi_square():
    # Exact path: every (b, c) with b + c <= 12 matches enumeration
    # over all 2^(b+c) outcomes to 1e-12. Chi-square path: b=10, c=0
    # yields the continuity-corrected statistic 8.1.
    worst = 0.0
    for n in range(0, 13):
        for b in range(n + 1):
            c = n - b
            total = b + c + 4
            truth = np.ones(total, dtype=np.int64)
            pred_a = np.ones(total, dtype=np.int64)
            pred_b = np.ones(total, dtype=np.int64)
            pred_b[:b] = 2
            pred_a[b : b + c] = 2
            result = mcnemar(pred_a, pred_b, truth)
            assert result.method == "exact_binomial"
            worst = max(worst, abs(result.p_value - mcnemar_exact_enumeration(b, c)))
    truth = np.ones(14, dtype=np.int64)
    pred_a = np.ones(14, dtype=np.int64)
    pred_b = np.ones(14, dtype=np.int64)
    pred_b[:10] = 2  # b=10, c=0
    chi = mcnemar(pred_a, pred_b, truth, exact_threshold=5)
    statistic_ok = chi.method == "chi_square" and abs(chi.statistic - 8.1) < 1e-12
    p_ok = abs(chi.p_value - chi_square_sf(8.1)) < 1e-15 and chi.significant_at_05
    _report(
        5,
        worst <= 1e-12 and statistic_ok and p_ok,
        f"worst exact-path gap {worst:.2e}; chi-square statistic {chi.statistic}",
    )


def test_criterion_6_synthetic_scene_pipeline():
    # 40 x 40 x 60 scene with 5 well-separated Gaussian classes: both
    # classifiers reach OA >= 0.98 on original features and >= 0.95
    # after PCA-10 and randomized PCA-10, all within one minute.
    t0 = time.perf_counter()
    cube, gt = gaussian_scene(40, 40, 60, 5, seed=11)
    samples = extract_labeled(cube, gt)
    train_set, test_set = stratified_split(samples, 0.7, seed=0)

    def reduced(method):
        if method == "original":
            return train_set.features, test_set.features
        if method == "pca":
            model = fit_pca(train_set.features, 10)
        else:
            model = fit_rpca(train_set.features, 10, seed=0)
        return transform(model, train_set.features), transform(model, test_set.features)

    def accuracy(kind, train_x, test_x):
        train = SampleSet(
            features=train_x,
            labels=train_set.labels,
            pixel_indices=train_set.pixel_indices,
        )
        if kind == "svm":
            model = svm_train(train, SvmParams())
            predicted = svm_predict(model, test_x)
        else:
            model = gbdt_train(train, GbdtParams(num_trees=60, min_samples_leaf=5))
            predicted = gbdt_predict(model, test_x)
        return evaluate(predicted, test_set.labels, gt.num_classes).overall_accuracy

    scores = {}
    for method in ("original", "pca", "rpca"):
        train_x, test_x = reduced(method)
        for kind in ("svm", "gbdt"):
            scores[f"{kind}/{method}"] = accuracy(kind, train_x, test_x)
    elapsed = time.perf_counter() - t0
    floors = {"original": 0.98, "pca": 0.95, "rpca": 0.95}
    ok = elapsed < 60.0 and all(
        scores[f"{kind}/{method}"] >= floors[method]
        for kind in ("svm", "gbdt")
        for method in floors
    )
    detail = ", ".join(f"{key} {value:.4f}" for key, value in sorted(scores.items()))
    _report(6, ok, f"{detail}; {elapsed:.1f}s")


def test_criterion_7_expected_results_documented():
    # Real-scene numbers are a documented expectation, not a CI gate:
    # the README must state the original >= PCA >= randomized-PCA
    # ordering, the SVM reference accuracies, and the +/- 0.05 band.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    needed = ["0.9760", "0.9565", "0.9327", "0.05", "Expected results"]
    missing = [token for token in needed if token not in readme]
    ordering_phrase = "original features, then PCA, then randomized PCA" in readme
    not_exact = "not reproduce" in readme or "not exactly" in readme
    _report(
        7,
        not missing and ordering_phrase and not_exact,
        "README documents expected orderings and reference accuracies"
        if not missing
        else f"README missing {missing}",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    # The same `run` invocation twice: every artifact byte-identical,
    # with timings.json as the only canonicalization exception.
    cube, gt = gaussian_scene(16, 16, 12, 4, seed=3)
    cube_path = save_cube(cube, tmp_path / "scene.hsih")
    gt_path = save_ground_truth(gt, tmp_path / "gt.hsih")
    out = tmp_path / "run"
    args = [
        "run",
        "--cube", str(cube_path),
        "--gt", str(gt_path),
        "--output", str(out),
        "--reduction", "pca",
        "--components", "4",
        "--seed", "9",
    ]
    assert main(args) == 0
    names = ("config.json", "report.json", "predictions.json", "model.json", "map.ppm")
    first = {name: (out / name).read_bytes() for name in names}
    assert main(args) == 0
    second = {name: (out / name).read_bytes() for name in names}
    identical = [name for name in names if first[name] == second[name]]
    ok = identical == list(names) and (out / "timings.json").exists()
    _report(8, ok, f"{len(identical)}/{len(names)} artifacts byte-identical")


def test_criterion_9_ordering_invariants():
    # 1000 randomized cases, 250 per family: singular values and
    # explained variances non-increasing, confusion totals consistent,
    # splits exact partitions.
    failures = 0

    for trial in range(250):
        rng = SplitMix64(5000 + trial)
        m = 5 + int(rng.uniforms(1)[0] * 35)
        n = 5 + int(rng.uniforms(1)[0] * 35)
        a = rng.normal_matrix(m, n)
        k = min(m, n)
        if trial % 2 == 0:
            s = exact_svd(a, k).s
        else:
            budget = max(1, k - 5)
            extra = min(5, k - budget)
            s = randomized_svd(
                a,
                RandomizedSvdParams(
                    k=budget, oversampling=extra, power_iterations=1, seed=trial
                ),
            ).s
        if not ((np.diff(s) <= 1e-12).all() and (s >= 0.0).all()):
            failures += 1

    for trial in range(250):
        rng = SplitMix64(6000 + trial)
        n = 10 + int(rng.uniforms(1)[0] * 50)
        b = 3 + int(rng.uniforms(1)[0] * 9)
        k = 1 + int(rng.uniforms(1)[0] * min(n, b))
        x = rng.normal_matrix(n, b)
        ev = fit_pca(x, k).explained_variance
        bounded = ev.sum() <= x.var(axis=0, ddof=1).sum() + 1e-9
        if not ((np.diff(ev) <= 1e-12).all() and (ev >= 0.0).all() and bounded):
            failures += 1

    for trial in range(250):
        rng = SplitMix64(7000 + trial)
        n = 1 + int(rng.uniforms(1)[0] * 200)
        c = 2 + int(rng.uniforms(1)[0] * 6)
        truth = 1 + (rng.uniforms(n) * c).astype(np.int64)
        pred = 1 + (rng.uniforms(n) * c).astype(np.int64)
        report = evaluate(pred, truth, c)
        row_ok = np.array_equal(
            report.confusion.sum(axis=1), np.bincount(truth, minlength=c + 1)[1:]
        )
        col_ok = np.array_equal(
            report.confusion.sum(axis=0), np.bincount(pred, minlength=c + 1)[1:]
        )
        oa_ok = abs(report.overall_accuracy - np.trace(report.confusion) / n) < 1e-15
        if not (row_ok and col_ok and oa_ok and report.confusion.sum() == n):
            failures += 1

    for trial in range(250):
        rng = SplitMix64(8000 + trial)
        c = 2 + int(rng.uniforms(1)[0] * 4)
        counts = 2 + (rng.uniforms(c) * 30).astype(int)
        labels = np.repeat(np.arange(1, c + 1), counts)
        n = len(labels)
        samples = SampleSet(
            features=rng.normal_matrix(n, 3),
            labels=labels,
            pixel_indices=np.arange(n, dtype=np.int64),
        )
        fraction = 0.2 + 0.6 * rng.uniforms(1)[0]
        train, test = stratified_split(samples, fraction, seed=trial)
        merged = np.sort(np.concatenate([train.pixel_indices, test.pixel_indices]))
        partition_ok = np.array_equal(merged, samples.pixel_indices)
        sides_ok = len(train) > 0 and len(test) > 0
        per_class_ok = True
        for cls, n_c in zip(range(1, c + 1), counts):
            want = min(max(int(np.floor(fraction * n_c + 0.5)), 1), n_c - 1)
            if int((train.labels == cls).sum()) != want:
                per_class_ok = False
        if not (partition_ok and sides_ok and per_class_ok):
            failures += 1

    _report(9, failures == 0, f"{failures} failures across 1000 cases")

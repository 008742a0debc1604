"""Tests for accuracy evaluation, McNemar's test, and map rendering."""

import numpy as np
import pytest

from _oracles import chi2_sf_numeric, mcnemar_exact_enumeration
from hsikit.evaluation import (
    PALETTE,
    EvalReport,
    McNemarResult,
    chi_square_sf,
    evaluate,
    mcnemar,
    render_map,
    write_ppm,
)
from hsikit.hsi_data import GroundTruth
from hsikit.rng import SplitMix64


def paired_predictions(b, c, both_right=5, both_wrong=3):
    """Prediction pair with exactly the requested discordant counts."""
    n = b + c + both_right + both_wrong
    truth = np.ones(n, dtype=np.int64)
    pred_a = np.ones(n, dtype=np.int64)
    pred_b = np.ones(n, dtype=np.int64)
    pred_b[:b] = 2  # a right, b wrong
    pred_a[b : b + c] = 2  # a wrong, b right
    pred_a[b + c : b + c + both_wrong] = 2
    pred_b[b + c : b + c + both_wrong] = 2
    return pred_a, pred_b, truth


# ----------------------------------------------------------------- evaluate


def test_evaluate_three_of_four():
    report = evaluate([1, 2, 2, 1], [1, 2, 2, 2], num_classes=2)
    assert report.overall_accuracy == 0.75
    assert report.n_test == 4


def test_evaluate_perfect():
    report = evaluate([1, 2, 3], [1, 2, 3], num_classes=3)
    assert report.overall_accuracy == 1.0
    assert np.array_equal(report.confusion, np.eye(3, dtype=np.int64))
    assert np.allclose(report.per_class_recall, 1.0)


def test_evaluate_permuted_two_class():
    # Balanced two-class predictions with the labels swapped: accuracy
    # 0 and an anti-diagonal confusion matrix.
    truth = [1, 1, 2, 2]
    pred = [2, 2, 1, 1]
    report = evaluate(pred, truth, num_classes=2)
    assert report.overall_accuracy == 0.0
    assert np.array_equal(report.confusion, [[0, 2], [2, 0]])
    assert np.allclose(report.per_class_recall, [0.0, 0.0])


def test_evaluate_confusion_layout():
    # confusion[t-1, p-1]: truth 1 predicted 2 lands at row 0, col 1.
    report = evaluate([2], [1], num_classes=2)
    assert report.confusion[0, 1] == 1
    assert report.confusion.sum() == 1


def test_evaluate_absent_class_recall_zero():
    report = evaluate([1, 1], [1, 1], num_classes=3)
    assert np.allclose(report.per_class_recall, [1.0, 0.0, 0.0])


def test_evaluate_accuracy_is_weighted_recall_mean():
    rng = SplitMix64(110)
    truth = 1 + (rng.uniforms(500) * 4).astype(np.int64)
    pred = 1 + (rng.uniforms(500) * 4).astype(np.int64)
    report = evaluate(pred, truth, num_classes=4)
    support = report.confusion.sum(axis=1)
    weighted = (report.per_class_recall * support).sum() / support.sum()
    assert abs(report.overall_accuracy - weighted) < 1e-12
    assert report.confusion.sum() == 500
    assert support.sum() == report.n_test


def test_evaluate_validation():
    with pytest.raises(ValueError):
        evaluate([0], [1], num_classes=2)
    with pytest.raises(ValueError):
        evaluate([3], [1], num_classes=2)
    with pytest.raises(ValueError):
        evaluate([1, 2], [1], num_classes=2)
    with pytest.raises(ValueError):
        evaluate([], [], num_classes=2)
    with pytest.raises(ValueError):
        evaluate([1], [1], num_classes=0)
    with pytest.raises(ValueError, match="predicted must be 1-D"):
        evaluate([[1, 2]], [1, 2], num_classes=2)
    # numpy would read 1.5 and true as the label 1; the check does not.
    with pytest.raises(ValueError, match="predicted must be an integer, got 1.5"):
        evaluate([1.5, 2], [1, 2], num_classes=2)
    with pytest.raises(ValueError, match="truth must be an integer, got True"):
        evaluate([1, 2], [True, 2], num_classes=2)
    with pytest.raises(ValueError, match="truth must be an integer"):
        evaluate([1, 2], np.array([True, False]), num_classes=2)
    report = evaluate([1.0, np.int32(2)], np.array([1, 2], dtype=np.uint8), num_classes=2)
    assert report.overall_accuracy == 1.0


def test_evaluate_rejects_a_non_integer_class_count():
    with pytest.raises(ValueError, match="num_classes must be an integer, got 2.0"):
        evaluate([1], [1], 2.0)


def test_eval_report_round_trip():
    report = evaluate([1, 2, 2, 1], [1, 2, 2, 2], num_classes=2)
    back = EvalReport.from_dict(report.to_dict())
    assert back.overall_accuracy == report.overall_accuracy
    assert np.array_equal(back.confusion, report.confusion)
    assert np.array_equal(back.per_class_recall, report.per_class_recall)
    assert back.n_test == report.n_test
    assert back.num_classes == report.num_classes
    assert back.to_dict() == report.to_dict()
    assert back.confusion.dtype == np.int64


# ------------------------------------------------------------ chi_square_sf


def test_chi_square_sf_against_numerical_integration():
    # The closed form is erfc(sqrt(x/2)); cross-check against Simpson
    # integration of the chi-square(1) density. The density is singular
    # at 0, so the quadrature oracle only applies for x > 0.
    for x in (0.5, 1.0, 3.84, 8.1, 20.0):
        assert abs(chi_square_sf(x) - chi2_sf_numeric(x)) <= 1e-12


def test_chi_square_sf_basics():
    assert chi_square_sf(0.0) == 1.0
    assert chi_square_sf(1e9) < 1e-12
    with pytest.raises(ValueError):
        chi_square_sf(-1.0)


def test_chi_square_sf_rejects_nan():
    with pytest.raises(ValueError, match="needs x >= 0, got nan"):
        chi_square_sf(float("nan"))


# -------------------------------------------------------------------- mcnemar


def test_mcnemar_identical_predictions():
    pred = np.array([1, 2, 1, 2, 1])
    truth = np.array([1, 2, 2, 2, 1])
    result = mcnemar(pred, pred, truth)
    assert result.b == 0 and result.c == 0
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert not result.significant_at_05


def test_mcnemar_ten_zero_statistic():
    pred_a, pred_b, truth = paired_predictions(b=10, c=0)
    result = mcnemar(pred_a, pred_b, truth)
    assert result.b == 10 and result.c == 0
    # Continuity-corrected statistic: (|10 - 0| - 1)^2 / 10.
    assert abs(result.statistic - 8.1) < 1e-12
    assert result.method == "exact_binomial"
    # Exact two-sided binomial: only k in {0, 10} is as extreme.
    assert abs(result.p_value - 2.0 / 1024.0) < 1e-15
    assert result.significant_at_05


def test_mcnemar_ten_zero_chi_square_path():
    pred_a, pred_b, truth = paired_predictions(b=10, c=0)
    result = mcnemar(pred_a, pred_b, truth, exact_threshold=5)
    assert result.method == "chi_square"
    assert abs(result.statistic - 8.1) < 1e-12
    assert abs(result.p_value - chi_square_sf(8.1)) < 1e-15
    assert result.significant_at_05


def test_mcnemar_near_identical_accuracies_not_significant():
    # 10000 test pixels, 460 vs 461 errors with 431 shared: the 0.9540
    # vs 0.9539 gap is noise.
    n = 10000
    truth = np.ones(n, dtype=np.int64)
    pred_a = np.ones(n, dtype=np.int64)
    pred_b = np.ones(n, dtype=np.int64)
    pred_a[:431] = 2
    pred_b[:431] = 2
    pred_a[431:460] = 2  # 29 extra errors for a
    pred_b[460:491] = 2  # 30 extra errors for b (wait: 491-460=31)
    pred_b[490] = 1  # trim to exactly 30
    wrong_a = int((pred_a != truth).sum())
    wrong_b = int((pred_b != truth).sum())
    assert (wrong_a, wrong_b) == (460, 461)
    result = mcnemar(pred_a, pred_b, truth)
    assert result.method == "chi_square"
    assert (result.b, result.c) == (30, 29)
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert not result.significant_at_05


def test_mcnemar_exact_path_matches_enumeration():
    # Direct enumeration over all 2^(b+c) equally likely discordant
    # outcomes, for every split with b + c <= 12.
    for n in range(0, 13):
        for b in range(n + 1):
            c = n - b
            pred_a, pred_b, truth = paired_predictions(b, c)
            result = mcnemar(pred_a, pred_b, truth)
            assert result.method == "exact_binomial"
            expected = mcnemar_exact_enumeration(b, c)
            assert abs(result.p_value - expected) <= 1e-12


def test_mcnemar_exact_path_beyond_float_range():
    # 2^n overflows a float from n = 1024; the exact path divides
    # integers, so a raised threshold still gives a p-value.
    pred_a, pred_b, truth = paired_predictions(b=1100, c=1100)
    tied = mcnemar(pred_a, pred_b, truth, exact_threshold=3000)
    assert tied.method == "exact_binomial"
    assert tied.p_value == 1.0
    pred_a, pred_b, truth = paired_predictions(b=600, c=500)
    exact = mcnemar(pred_a, pred_b, truth, exact_threshold=2000)
    approx = mcnemar(pred_a, pred_b, truth)
    assert (exact.method, approx.method) == ("exact_binomial", "chi_square")
    assert 0.0 < exact.p_value < 0.05
    assert abs(exact.p_value - approx.p_value) <= 0.01


def test_mcnemar_symmetry():
    pred_a, pred_b, truth = paired_predictions(b=7, c=2)
    r_ab = mcnemar(pred_a, pred_b, truth)
    r_ba = mcnemar(pred_b, pred_a, truth)
    assert (r_ab.b, r_ab.c) == (r_ba.c, r_ba.b)
    assert r_ab.statistic == r_ba.statistic
    assert r_ab.p_value == r_ba.p_value


def test_mcnemar_concordant_invariance():
    a1, b1, t1 = paired_predictions(b=6, c=3, both_right=0, both_wrong=0)
    a2, b2, t2 = paired_predictions(b=6, c=3, both_right=50, both_wrong=20)
    r1 = mcnemar(a1, b1, t1)
    r2 = mcnemar(a2, b2, t2)
    assert (r1.b, r1.c) == (r2.b, r2.c)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value


def test_mcnemar_validation():
    with pytest.raises(ValueError):
        mcnemar([1, 2], [1], [1, 2])
    with pytest.raises(ValueError):
        mcnemar([], [], [])


def test_mcnemar_takes_only_integer_labels():
    # numpy would count 1.5 as a wrong prediction and compare 2-D or
    # string labels; the check rejects each.
    with pytest.raises(ValueError, match="pred_a must be an integer, got 1.5"):
        mcnemar([1.5, 2], [1, 2], [1, 2])
    with pytest.raises(ValueError, match="pred_b must be 1-D"):
        mcnemar([1, 2], [[1, 2]], [1, 2])
    with pytest.raises(ValueError, match="truth must be an integer, got 'a'"):
        mcnemar([1, 2], [1, 2], ["a", "b"])
    assert mcnemar([1.0, 2], np.array([1, 2], dtype=np.uint8), [1, 2]).b == 0


def test_mcnemar_result_dict():
    pred_a, pred_b, truth = paired_predictions(b=4, c=1)
    result = mcnemar(pred_a, pred_b, truth)
    d = result.to_dict()
    assert set(d) == {"b", "c", "statistic", "p_value", "significant_at_05", "method"}
    assert d["b"] == 4 and d["c"] == 1
    assert McNemarResult.from_dict(d) == result


# ------------------------------------------------------------------ rendering


def test_render_empty_predictions_all_black():
    gt = GroundTruth(3, 2, np.zeros((3, 2), dtype=np.uint16))
    image = render_map(gt, [], [])
    assert image.shape == (3, 2, 3)
    assert image.dtype == np.uint8
    assert (image == 0).all()


def test_render_single_pixel():
    gt = GroundTruth(2, 2, np.zeros((2, 2), dtype=np.uint16))
    image = render_map(gt, [1], [3])  # class 1 at flat offset 3 = (1, 1)
    assert (image[0] == 0).all()
    assert (image[1, 0] == 0).all()
    assert tuple(image[1, 1]) == (255, 0, 0)


def test_render_golden_four_by_four(tmp_path):
    # Hand-assembled golden bytes: classes 1 (red), 2 (lime), 3 (blue)
    # at flat offsets 0, 5, 10 on a 4 x 4 raster.
    gt = GroundTruth(4, 4, np.zeros((4, 4), dtype=np.uint16))
    image = render_map(gt, [1, 2, 3], [0, 5, 10])
    body = bytearray(48)
    body[0:3] = bytes((255, 0, 0))
    body[15:18] = bytes((0, 255, 0))
    body[30:33] = bytes((0, 0, 255))
    golden = b"P6\n4 4\n255\n" + bytes(body)
    path = tmp_path / "map.ppm"
    write_ppm(image, path)
    assert path.read_bytes() == golden


def test_render_palette_wraps_beyond_sixteen():
    gt = GroundTruth(1, 3, np.zeros((1, 3), dtype=np.uint16))
    image = render_map(gt, [16, 17, 32], [0, 1, 2])
    assert tuple(image[0, 0]) == (255, 255, 255)  # class 16 is white
    assert tuple(image[0, 1]) == tuple(PALETTE[1])  # 17 wraps to red
    assert tuple(image[0, 2]) == tuple(PALETTE[16])  # 32 wraps to white


def test_render_validation():
    gt = GroundTruth(2, 2, np.zeros((2, 2), dtype=np.uint16))
    with pytest.raises(ValueError):
        render_map(gt, [1], [4])  # out of raster bounds
    with pytest.raises(ValueError):
        render_map(gt, [1], [-1])
    with pytest.raises(ValueError):
        render_map(gt, [0], [0])  # class labels start at 1
    with pytest.raises(ValueError):
        render_map(gt, [1, 2], [0])
    # numpy would paint 1.5 and true as class 1, and 1.9 at pixel 1.
    with pytest.raises(ValueError, match="predictions must be an integer, got 1.5"):
        render_map(gt, [1.5, 2], [0, 1])
    with pytest.raises(ValueError, match="predictions must be an integer, got True"):
        render_map(gt, [1, True], [0, 1])
    with pytest.raises(ValueError, match="pixel_indices must be an integer, got 1.9"):
        render_map(gt, [1, 2], [0, 1.9])


def test_write_ppm_validation(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(np.zeros((2, 2, 3), dtype=np.float64), tmp_path / "x.ppm")
    with pytest.raises(ValueError):
        write_ppm(np.zeros((2, 2), dtype=np.uint8), tmp_path / "x.ppm")


def test_write_ppm_header_and_size(tmp_path):
    image = np.full((3, 5, 3), 7, dtype=np.uint8)
    path = tmp_path / "map.ppm"
    write_ppm(image, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n5 3\n255\n")
    assert len(raw) == len(b"P6\n5 3\n255\n") + 45

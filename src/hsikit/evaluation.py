"""Accuracy reports, McNemar's test, and classification map rendering.

McNemar's test compares two classifiers on the same test pixels using
only the discordant pairs: b = pixels only the first got right,
c = pixels only the second got right. The continuity-corrected
statistic (|b - c| - 1)^2 / (b + c) is referred to chi-square with one
degree of freedom; below 25 discordant pairs the exact two-sided
binomial computation replaces the approximation.

Maps are painted with a fixed 17-color palette (black background plus
the 16 CSS basic colors in a fixed order) and written as binary PPM,
so rendered files are byte-stable across platforms.
"""

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .hsi_data import GroundTruth
from .records import Record, coerce

__all__ = [
    "PALETTE",
    "EvalReport",
    "evaluate",
    "McNemarResult",
    "mcnemar",
    "chi_square_sf",
    "render_map",
    "write_ppm",
]

# Index 0 is the unlabeled background; classes 1..16 follow. Classes
# beyond 16 reuse the cycle: class c gets PALETTE[(c - 1) % 16 + 1].
PALETTE = np.array(
    [
        (0, 0, 0),  # 0 background
        (255, 0, 0),  # 1 red
        (0, 255, 0),  # 2 lime
        (0, 0, 255),  # 3 blue
        (255, 255, 0),  # 4 yellow
        (255, 0, 255),  # 5 magenta
        (0, 255, 255),  # 6 cyan
        (128, 0, 0),  # 7 maroon
        (0, 128, 0),  # 8 green
        (0, 0, 128),  # 9 navy
        (128, 128, 0),  # 10 olive
        (128, 0, 128),  # 11 purple
        (0, 128, 128),  # 12 teal
        (255, 165, 0),  # 13 orange
        (192, 192, 192),  # 14 silver
        (128, 128, 128),  # 15 gray
        (255, 255, 255),  # 16 white
    ],
    dtype=np.uint8,
)


@dataclass
class EvalReport(Record):
    overall_accuracy: float
    per_class_recall: Annotated[np.ndarray, np.float64]  # indexed by class id - 1
    confusion: Annotated[np.ndarray, np.int64]  # confusion[t - 1, p - 1] counts truth t predicted p
    n_test: int
    num_classes: int


def _check_ints(values, name):
    """``values`` as a 1-D int64 array. Anything but an integer array is
    checked entry by entry by coerce's int rule, as numpy would turn a
    fraction or a bool into an integer."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if not (isinstance(values, np.ndarray) and arr.dtype.kind in "iu"):
        arr = np.array([coerce(v, int, name) for v in values], dtype=np.int64)
    return arr.astype(np.int64)


def _check_labels(labels, name, num_classes):
    """``labels`` as int64 labels in 1..num_classes (see ``_check_ints``)."""
    arr = _check_ints(labels, name)
    if len(arr) and (arr.min() < 1 or arr.max() > num_classes):
        raise ValueError(f"{name} has labels outside 1..{num_classes}")
    return arr


def evaluate(predicted, truth, num_classes: int) -> EvalReport:
    """Overall accuracy, per-class recall, and the confusion matrix.

    Classes absent from the test set get recall 0.0 by convention.
    """
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    predicted = _check_labels(predicted, "predicted", num_classes)
    truth = _check_labels(truth, "truth", num_classes)
    if len(predicted) != len(truth):
        raise ValueError(f"length mismatch: {len(predicted)} predictions, {len(truth)} truths")
    if len(truth) == 0:
        raise ValueError("evaluate needs at least one test sample")
    flat = (truth - 1) * num_classes + (predicted - 1)
    confusion = np.bincount(flat, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes
    )
    support = confusion.sum(axis=1)
    recall = np.where(support > 0, np.diag(confusion) / np.maximum(support, 1), 0.0)
    return EvalReport(
        overall_accuracy=float(np.trace(confusion) / len(truth)),
        per_class_recall=recall,
        confusion=confusion,
        n_test=len(truth),
        num_classes=num_classes,
    )


def chi_square_sf(x: float) -> float:
    """Survival function of chi-square with 1 degree of freedom."""
    if x < 0:
        raise ValueError(f"chi_square_sf needs x >= 0, got {x}")
    return math.erfc(math.sqrt(x / 2.0))


@dataclass(frozen=True)
class McNemarResult(Record):
    b: int  # only the first classifier correct
    c: int  # only the second classifier correct
    statistic: float
    p_value: float
    significant_at_05: bool
    method: str  # "exact_binomial" or "chi_square"


def _exact_binomial_p(b: int, c: int) -> float:
    """Two-sided p for b successes out of b + c fair coin flips.

    Sums C(n, k) / 2^n over all k at least as extreme as the observed
    split, in exact integer arithmetic; the final integer division is
    rounded once, so it holds for any n (a float 2^n overflows at
    n = 1024).
    """
    n = b + c
    if n == 0:
        return 1.0
    observed = abs(b - c)
    total = sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) >= observed)
    return total / 2**n


def mcnemar(pred_a, pred_b, truth, exact_threshold: int = 25) -> McNemarResult:
    """McNemar's test on paired predictions over common test pixels.

    Uses the exact binomial p-value when the discordant count b + c is
    below ``exact_threshold``, the continuity-corrected chi-square
    approximation otherwise. Significance is judged at the 0.05 level.
    """
    pred_a = np.asarray(pred_a)
    pred_b = np.asarray(pred_b)
    truth = np.asarray(truth)
    if not (len(pred_a) == len(pred_b) == len(truth)):
        raise ValueError(
            f"length mismatch: {len(pred_a)}, {len(pred_b)}, {len(truth)}"
        )
    if len(truth) == 0:
        raise ValueError("mcnemar needs at least one test sample")
    right_a = pred_a == truth
    right_b = pred_b == truth
    b = int(np.sum(right_a & ~right_b))
    c = int(np.sum(~right_a & right_b))
    discordant = b + c
    if discordant > 0:
        statistic = max(abs(b - c) - 1.0, 0.0) ** 2 / discordant
    else:
        statistic = 0.0
    if discordant < exact_threshold:
        p_value = _exact_binomial_p(b, c)
        method = "exact_binomial"
    else:
        p_value = chi_square_sf(statistic)
        method = "chi_square"
    return McNemarResult(
        b=b,
        c=c,
        statistic=float(statistic),
        p_value=float(p_value),
        significant_at_05=bool(p_value < 0.05),
        method=method,
    )


def render_map(gt: GroundTruth, predictions, pixel_indices) -> np.ndarray:
    """Paint predictions onto the scene raster as an H x W x 3 image.

    Pixels not covered by ``pixel_indices`` stay black (background).
    """
    predictions = _check_ints(predictions, "predictions")
    pixel_indices = _check_ints(pixel_indices, "pixel_indices")
    if len(predictions) != len(pixel_indices):
        raise ValueError(
            f"predictions ({len(predictions)}) and pixel_indices ({len(pixel_indices)}) "
            "must be aligned"
        )
    n_pixels = gt.height * gt.width
    if len(pixel_indices) and (pixel_indices.min() < 0 or pixel_indices.max() >= n_pixels):
        raise ValueError(f"pixel index out of raster bounds 0..{n_pixels - 1}")
    if len(predictions) and predictions.min() < 1:
        raise ValueError("predictions must be class labels >= 1")
    flat = np.zeros(n_pixels, dtype=np.int64)
    flat[pixel_indices] = (predictions - 1) % 16 + 1
    return PALETTE[flat].reshape(gt.height, gt.width, 3)


def write_ppm(image: np.ndarray, path) -> None:
    """Write an H x W x 3 uint8 image as a binary (P6) portable pixmap."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"expected an H x W x 3 uint8 image, got {image.shape} {image.dtype}")
    height, width = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())

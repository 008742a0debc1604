"""Tests for the synthetic scene generator: argument checks, the blocked
fill against the whole-array reference, and its memory."""

import tracemalloc

import pytest

from _oracles import gaussian_scene_values
from hsikit.synthetic import _BLOCK, gaussian_scene


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"height": 0}, "height must be >= 1, got 0"),
        ({"width": 0}, "width must be >= 1, got 0"),
        ({"bands": 0}, "bands must be >= 1, got 0"),
        ({"num_classes": 0}, "num_classes must be >= 1"),
        ({"width": 2}, "width 2 cannot hold 3 stripes"),
        ({"unlabeled_fraction": 1.0}, r"unlabeled_fraction must be in \[0, 1\)"),
        ({"unlabeled_fraction": -0.1}, r"unlabeled_fraction must be in \[0, 1\)"),
        ({"noise": 0.0}, "noise must be > 0"),
        ({"class_names": ["a", "b"]}, "expected 3 class names, got 2"),
        ({"width": 6.0}, "width must be an integer, got 6.0"),
        ({"height": True}, "height must be an integer, got True"),
        ({"bands": "2"}, "bands must be an integer, got '2'"),
        ({"num_classes": 2.5}, "num_classes must be an integer, got 2.5"),
        ({"noise": float("inf")}, "noise must be > 0 and finite, got inf"),
        ({"noise": float("nan")}, "noise must be > 0 and finite, got nan"),
        ({"separation": float("nan")}, "separation must be >= 0 and finite, got nan"),
        ({"separation": float("inf")}, "separation must be >= 0 and finite, got inf"),
        ({"separation": -1.0}, "separation must be >= 0 and finite, got -1.0"),
    ],
)
def test_gaussian_scene_rejects_bad_arguments(kwargs, message):
    args = {"height": 4, "width": 6, "bands": 2, "num_classes": 3, **kwargs}
    with pytest.raises(ValueError, match=message):
        gaussian_scene(**args)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"height": 1, "width": 1, "bands": 1, "num_classes": 1},
        {"height": 3, "width": 5, "bands": 7, "num_classes": 3, "seed": 4},
        # One row is longer than a block, and odd: a block holds two rows.
        {"height": 2, "width": _BLOCK + 1, "bands": 2, "num_classes": 2, "seed": 5},
        # Seven blocks, each ending inside a band.
        {
            "height": 50,
            "width": 71,
            "bands": 64,
            "num_classes": 5,
            "seed": 6,
            "noise": 0.5,
            "unlabeled_fraction": 0.0,
        },
    ],
)
def test_gaussian_scene_matches_whole_array_reference(kwargs):
    # Byte for byte against the same draws made whole by the same libm,
    # not against stored checksums, which other libm or SIMD builds may
    # not reproduce.
    cube, gt = gaussian_scene(**kwargs)
    values, labels = gaussian_scene_values(**kwargs)
    assert cube.values.dtype == values.dtype
    assert cube.values.tobytes() == values.tobytes()
    assert gt.labels.tobytes() == labels.tobytes()


def test_gaussian_scene_memory_is_cube_plus_blocks():
    # The whole-array fill held several float64 copies of the cube
    # (53.6 MiB for this 7.6 MiB cube); the blocked fill holds the cube
    # and a few blocks of float64 temporaries.
    tracemalloc.start()
    try:
        cube, _ = gaussian_scene(200, 200, 50, 5, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cube.values.nbytes + 8 * _BLOCK * 8

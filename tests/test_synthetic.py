"""Tests for the synthetic scene generator's argument checks."""

import pytest

from hsikit.synthetic import gaussian_scene


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"height": 0}, "scene dimensions must be positive"),
        ({"width": 0}, "scene dimensions must be positive"),
        ({"bands": 0}, "scene dimensions must be positive"),
        ({"num_classes": 0}, "num_classes must be >= 1"),
        ({"width": 2}, "width 2 cannot hold 3 stripes"),
        ({"unlabeled_fraction": 1.0}, r"unlabeled_fraction must be in \[0, 1\)"),
        ({"unlabeled_fraction": -0.1}, r"unlabeled_fraction must be in \[0, 1\)"),
        ({"noise": 0.0}, "noise must be > 0"),
        ({"class_names": ["a", "b"]}, "expected 3 class names, got 2"),
    ],
)
def test_gaussian_scene_rejects_bad_arguments(kwargs, message):
    args = {"height": 4, "width": 6, "bands": 2, "num_classes": 3, **kwargs}
    with pytest.raises(ValueError, match=message):
        gaussian_scene(**args)

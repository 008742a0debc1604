"""Synthetic hyperspectral scenes with a known, easy class structure.

The generator lays classes out as vertical stripes, draws one Gaussian
mean spectrum per class, and adds white noise per pixel. With the
default separation of 10 noise standard deviations between class
means, a nearest-mean decision is essentially always right, so
pipeline tests have a known accuracy ceiling close to 1.

Everything is derived from a single SplitMix64 stream in a fixed
order (means, then pixel noise, then the unlabeled mask), so a seed
pins the whole scene byte for byte.

The float32 cube is allocated once and filled in blocks of whole
(band, row) rows, each drawn on its own from the counter-based noise
stream (``SplitMix64.normal_blocks``). The bytes equal those of the
whole-array fill, and memory is the cube plus the float64 temporaries
of one block of ``_BLOCK`` values.
"""

import numpy as np

from .hsi_data import GroundTruth, HsiCube, default_class_names
from .records import check_int
from .rng import SplitMix64

__all__ = ["gaussian_scene"]

# Noise variates per block: 256 KiB of float64, so a block's temporaries
# stay in cache (2**13 and 2**17 both filled the Pavia-sized cube slower).
_BLOCK = 2**15


def gaussian_scene(
    height: int,
    width: int,
    bands: int,
    num_classes: int,
    seed: int = 0,
    noise: float = 1.0,
    separation: float = 10.0,
    unlabeled_fraction: float = 0.05,
    class_names=None,
):
    """Generate a striped Gaussian scene; returns (HsiCube, GroundTruth).

    Class means are drawn so that the expected distance between any
    two of them is ``separation * noise``. A ``unlabeled_fraction`` of
    pixels is relabeled 0 at random (their spectra keep the stripe's
    class mean).
    """
    sizes = {"height": height, "width": width, "bands": bands, "num_classes": num_classes}
    for name, value in sizes.items():
        check_int(value, name)
    if height < 1 or width < 1 or bands < 1:
        raise ValueError(f"scene dimensions must be positive, got {height}x{width}x{bands}")
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    if width < num_classes:
        raise ValueError(f"width {width} cannot hold {num_classes} stripes")
    if not 0.0 <= unlabeled_fraction < 1.0:
        raise ValueError(f"unlabeled_fraction must be in [0, 1), got {unlabeled_fraction}")
    if not 0 < noise < np.inf:
        raise ValueError(f"noise must be > 0 and finite, got {noise}")
    if not 0 <= separation < np.inf:
        raise ValueError(f"separation must be >= 0 and finite, got {separation}")
    if class_names is None:
        class_names = default_class_names(num_classes)
    elif len(class_names) != num_classes:
        raise ValueError(f"expected {num_classes} class names, got {len(class_names)}")

    rng = SplitMix64(seed)
    scale = separation * noise / np.sqrt(2.0 * bands)
    means = rng.normal_matrix(num_classes, bands) * scale

    stripe = (np.arange(width) * num_classes) // width  # class - 1 per column
    labels = np.tile(stripe + 1, (height, 1)).astype(np.uint16)

    # Row r of the (bands * height, width) noise stream lies in band r // height.
    clean = means[stripe].T  # bands x width
    values = np.empty((bands, height, width), dtype=np.float32)
    rows = values.reshape(bands * height, width)
    step = max(1, _BLOCK // width)
    step += step * width % 2  # whole pairs per block
    blocks = rng.normal_blocks(rows.size, step * width)
    for r0, z in zip(range(0, len(rows), step), blocks):
        z = z.reshape(-1, width)
        band = np.arange(r0, r0 + len(z)) // height
        rows[r0 : r0 + len(z)] = clean[band] + noise * z

    if unlabeled_fraction > 0.0:
        drop = rng.uniforms(height * width).reshape(height, width) < unlabeled_fraction
        labels[drop] = 0

    cube = HsiCube(height=height, width=width, bands=bands, values=values)
    gt = GroundTruth(
        height=height,
        width=width,
        labels=labels,
        class_names=list(class_names),
    )
    return cube, gt

"""Hyperspectral cube and ground-truth containers, labeled-pixel
extraction, and stratified train/test splitting.

Container format
----------------
A scene is a pair of files sharing a basename: ``<name>.hsih`` (UTF-8
text header) and ``<name>.hsir`` (raw little-endian payload). The
header's first line is the magic ``hsih 1``; the remaining lines are
``key: value`` pairs:

    hsih 1
    height: 145
    width: 145
    bands: 200
    dtype: f32
    interleave: bsq
    byteorder: le
    class_names: Alfalfa, Corn-notill, ...   (ground truth only, optional)

Cubes use ``dtype: f32``; ground truth uses ``dtype: u16`` with
``bands: 1`` and label 0 meaning "unlabeled". The payload is exactly
height x width x bands values, band-sequential (all of band 0 in raster
order, then band 1, ...). Class names may not contain commas.
"""

import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .rng import SplitMix64

__all__ = [
    "HsiCube",
    "GroundTruth",
    "SampleSet",
    "parse_header",
    "load_cube",
    "save_cube",
    "load_ground_truth",
    "save_ground_truth",
    "extract_labeled",
    "stratified_split",
]

_MAGIC = "hsih 1"


@dataclass
class HsiCube:
    """H x W x B raster held band-sequential as a (B, H, W) float32 array."""

    height: int
    width: int
    bands: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        expected = (self.bands, self.height, self.width)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        # min and max carry any NaN or infinity without a per-value mask,
        # so the check allocates nothing beside the cube.
        if self.values.size and not np.isfinite([self.values.min(), self.values.max()]).all():
            raise ValueError("cube contains non-finite values")


@dataclass
class GroundTruth:
    """Per-pixel class labels on an H x W grid; 0 marks unlabeled pixels."""

    height: int
    width: int
    labels: np.ndarray
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint16)
        if self.labels.shape != (self.height, self.width):
            raise ValueError(
                f"labels shape {self.labels.shape} != {(self.height, self.width)}"
            )
        if self.class_names and self.labels.size:
            top = int(self.labels.max())
            if top > len(self.class_names):
                raise ValueError(
                    f"label {top} exceeds the {len(self.class_names)} named classes"
                )

    @property
    def num_classes(self) -> int:
        if self.class_names:
            return len(self.class_names)
        return int(self.labels.max()) if self.labels.size else 0


@dataclass
class SampleSet:
    """Labeled pixels: features (n x B), labels in 1..C, and the flat
    raster offset of each pixel for map rendering."""

    features: np.ndarray
    labels: np.ndarray
    pixel_indices: np.ndarray

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        self.pixel_indices = np.ascontiguousarray(self.pixel_indices, dtype=np.int64)
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.pixel_indices.shape != (n,):
            raise ValueError("features, labels and pixel_indices must align")
        if self.labels.size and self.labels.min() < 1:
            raise ValueError("labels must be >= 1 (0 marks unlabeled pixels)")

    def __len__(self) -> int:
        return self.features.shape[0]


def _payload_path(header_path) -> Path:
    return Path(header_path).with_suffix(".hsir")


def parse_header(header_path) -> dict:
    """Parse and validate a ``.hsih`` header; returns its fields."""
    path = Path(header_path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read header {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: header is not UTF-8 text ({exc})") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != _MAGIC:
        raise DataFormatError(f"{path}: missing '{_MAGIC}' magic line")
    fields = {}
    for ln in lines[1:]:
        if not ln.strip():
            continue
        if ":" not in ln:
            raise DataFormatError(f"{path}: malformed header line {ln!r}")
        key, value = ln.split(":", 1)
        fields[key.strip()] = value.strip()
    for key in ("height", "width", "bands", "dtype", "interleave", "byteorder"):
        if key not in fields:
            raise DataFormatError(f"{path}: header missing required key {key!r}")
    try:
        for key in ("height", "width", "bands"):
            fields[key] = int(fields[key])
            if fields[key] < 1:
                raise ValueError
    except ValueError:
        raise DataFormatError(f"{path}: height/width/bands must be positive integers")
    if fields["interleave"] != "bsq":
        raise DataFormatError(f"{path}: unsupported interleave {fields['interleave']!r}")
    if fields["byteorder"] != "le":
        raise DataFormatError(f"{path}: unsupported byteorder {fields['byteorder']!r}")
    if fields["dtype"] not in ("f32", "u16"):
        raise DataFormatError(f"{path}: unsupported dtype {fields['dtype']!r}")
    return fields


def _read_payload(header_path, fields: dict) -> np.ndarray:
    """The payload as one (bands, height, width) array, read once from the
    file straight into the array that is returned."""
    payload = _payload_path(header_path)
    np_dtype = np.dtype("<f4") if fields["dtype"] == "f32" else np.dtype("<u2")
    shape = (fields["bands"], fields["height"], fields["width"])
    count = math.prod(shape)
    try:
        with open(payload, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != count * np_dtype.itemsize:
                raise DataFormatError(
                    f"{payload}: payload is {size} bytes, expected {count * np_dtype.itemsize} "
                    f"({fields['height']}x{fields['width']}x{fields['bands']} {fields['dtype']})"
                )
            values = np.fromfile(fh, dtype=np_dtype, count=count)
    except OSError as exc:
        raise DataFormatError(f"cannot read payload {payload}: {exc}") from exc
    return values.reshape(shape)


def load_cube(header_path) -> HsiCube:
    """Load a ``dtype: f32`` scene; raises DataFormatError on a malformed
    header, a size mismatch, or non-finite values."""
    fields = parse_header(header_path)
    if fields["dtype"] != "f32":
        raise DataFormatError(f"{header_path}: cube requires dtype f32, got {fields['dtype']}")
    try:
        return HsiCube(
            height=fields["height"],
            width=fields["width"],
            bands=fields["bands"],
            values=_read_payload(header_path, fields),
        )
    except ValueError as exc:
        raise DataFormatError(f"{header_path}: {exc}") from exc


def load_ground_truth(header_path) -> GroundTruth:
    """Load a ``dtype: u16`` single-band label raster."""
    fields = parse_header(header_path)
    if fields["dtype"] != "u16":
        raise DataFormatError(
            f"{header_path}: ground truth requires dtype u16, got {fields['dtype']}"
        )
    if fields["bands"] != 1:
        raise DataFormatError(f"{header_path}: ground truth must have bands: 1")
    names = []
    if "class_names" in fields and fields["class_names"]:
        names = [s.strip() for s in fields["class_names"].split(",")]
    try:
        return GroundTruth(
            height=fields["height"],
            width=fields["width"],
            labels=_read_payload(header_path, fields)[0],
            class_names=names,
        )
    except ValueError as exc:
        raise DataFormatError(f"{header_path}: {exc}") from exc


def _write_container(header_path, fields: list[tuple[str, str]], payload: bytes) -> Path:
    header = Path(header_path)
    if header.suffix != ".hsih":
        header = header.with_name(header.name + ".hsih")
    lines = [_MAGIC] + [f"{k}: {v}" for k, v in fields]
    header.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _payload_path(header).write_bytes(payload)
    return header


def save_cube(cube: HsiCube, header_path) -> Path:
    """Write the ``.hsih``/``.hsir`` pair for a cube (little-endian BSQ).

    Returns the header path, with the ``.hsih`` suffix added if missing.
    """
    return _write_container(
        header_path,
        [
            ("height", str(cube.height)),
            ("width", str(cube.width)),
            ("bands", str(cube.bands)),
            ("dtype", "f32"),
            ("interleave", "bsq"),
            ("byteorder", "le"),
        ],
        cube.values.astype("<f4").tobytes(),
    )


def save_ground_truth(gt: GroundTruth, header_path) -> Path:
    """Write the ``.hsih``/``.hsir`` pair for a label raster."""
    fields = [
        ("height", str(gt.height)),
        ("width", str(gt.width)),
        ("bands", "1"),
        ("dtype", "u16"),
        ("interleave", "bsq"),
        ("byteorder", "le"),
    ]
    if gt.class_names:
        for name in gt.class_names:
            if "," in name:
                raise ValueError(f"class name {name!r} may not contain commas")
        fields.append(("class_names", ", ".join(gt.class_names)))
    return _write_container(header_path, fields, gt.labels.astype("<u2").tobytes())


def extract_labeled(cube: HsiCube, gt: GroundTruth) -> SampleSet:
    """One sample per labeled pixel, in raster order.

    Features are the pixel's band vector (float64), labels the ground
    truth class ids, pixel_indices the flat ``y * width + x`` offsets.
    """
    if (cube.height, cube.width) != (gt.height, gt.width):
        raise ValueError(
            f"cube is {cube.height}x{cube.width} but ground truth is "
            f"{gt.height}x{gt.width}"
        )
    flat_labels = gt.labels.reshape(-1)
    indices = np.nonzero(flat_labels)[0]
    # SampleSet casts each array to its dtype and C order; a cast here would copy twice.
    return SampleSet(
        features=cube.values.reshape(cube.bands, -1)[:, indices].T,
        labels=flat_labels[indices],
        pixel_indices=indices,
    )


def stratified_split(
    samples: SampleSet, train_fraction: float, seed: int
) -> tuple[SampleSet, SampleSet]:
    """Seeded per-class train/test split.

    Each class with n_c samples contributes round-half-up(fraction*n_c)
    training samples, clamped to [1, n_c - 1] so both sides see every
    class; a single-sample class goes entirely to train with a warning.
    Selection shuffles within each class; both outputs keep raster order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = SplitMix64(seed)
    train_positions = []
    test_positions = []
    for cls in np.unique(samples.labels):
        positions = np.nonzero(samples.labels == cls)[0]
        n_c = len(positions)
        perm = positions[rng.permutation(n_c)]
        if n_c == 1:
            warnings.warn(
                f"class {int(cls)} has a single sample; assigning it to train",
                stacklevel=2,
            )
            train_positions.append(perm)
            continue
        n_train = int(np.floor(train_fraction * n_c + 0.5))
        n_train = min(max(n_train, 1), n_c - 1)
        train_positions.append(perm[:n_train])
        test_positions.append(perm[n_train:])

    def take(position_groups):
        if position_groups:
            pos = np.sort(np.concatenate(position_groups))
        else:
            pos = np.empty(0, dtype=np.int64)
        return SampleSet(
            features=samples.features[pos],
            labels=samples.labels[pos],
            pixel_indices=samples.pixel_indices[pos],
        )

    return take(train_positions), take(test_positions)

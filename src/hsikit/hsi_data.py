"""Hyperspectral cube and ground-truth containers, labeled-pixel
extraction, and the two seeded per-class partitions of labeled samples:
``stratified_split`` (train/test) and ``stratified_folds`` (the
cross-validation folds of ``grid_search_cv``). Both shuffle each class's
positions, in ascending class order, from one SplitMix64 stream.
``load_split`` gives ``stratified_split``'s train and test sets straight
from a cube file: it splits the labels first, then reads the cube one
band at a time into the two sets, so it never holds the whole cube, and
keeps the samples in the cube's float32.

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
order, then band 1, ...). Class names are non-empty and may not
contain commas or line breaks, or start or end with whitespace.

Every fact about these bytes lives here: ``DTYPES`` maps header dtypes
to little-endian numpy types, ``cube_bands`` reads a cube one band at a
time, ``read_raw`` reads a whole payload, and
``save_cube``/``save_ground_truth`` share one writer. Both readers check
a file's size before they read anything. ``load_split`` and ``hsikit
inspect`` read cubes through ``cube_bands``; ``load_cube``,
``load_ground_truth`` and ``hsikit convert`` (bsq, bil and bip dumps)
read through ``read_raw``.

Every reader names its file by the one rule of ``errors.naming``: a
fault in the header or the payload, a value that breaks the rules of
``HsiCube`` or ``GroundTruth`` among them, raises DataFormatError whose
message starts with the header's path. A file that cannot be opened or
read is named in ``cannot read header ...`` or ``cannot read payload
...``, and a payload of the wrong size by its own path.
"""

import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, naming
from .linalg import as_matrix
from .records import check_int, int_array, real_array
from .rng import SplitMix64

__all__ = [
    "HsiCube",
    "GroundTruth",
    "SampleSet",
    "default_class_names",
    "DTYPES",
    "INTERLEAVES",
    "parse_header",
    "read_raw",
    "cube_bands",
    "load_cube",
    "save_cube",
    "load_ground_truth",
    "save_ground_truth",
    "extract_labeled",
    "stratified_split",
    "load_split",
    "stratified_folds",
]

_MAGIC = "hsih 1"

# The payload's value type for each header ``dtype``, always little-endian.
DTYPES = {"f32": "<f4", "u16": "<u2"}

# Each raw interleave's axes, in file order, as positions in (bands,
# height, width): bsq is band, row, column; bil row, band, column; bip
# row, column, band. Containers are always bsq.
INTERLEAVES = {"bsq": (0, 1, 2), "bil": (1, 0, 2), "bip": (1, 2, 0)}


@dataclass
class HsiCube:
    """H x W x B raster held band-sequential as a (B, H, W) float32 array.

    Values follow ``records.real_array``'s rule: integers or floats, all
    finite as float32."""

    height: int
    width: int
    bands: int
    values: np.ndarray

    def __post_init__(self):
        # A transposed view stays a view; the writer walks it band by band.
        self.values = real_array(self.values, np.float32, "cube", order="K")
        expected = (self.bands, self.height, self.width)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")


@dataclass
class GroundTruth:
    """Per-pixel class labels on an H x W grid; 0 marks unlabeled pixels.

    Labels are stored as uint16: a label that is not an integer in
    0..65535 raises ValueError (see ``records.int_array``)."""

    height: int
    width: int
    labels: np.ndarray
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.labels = int_array(self.labels, np.uint16, "labels")
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


def default_class_names(num_classes: int) -> list[str]:
    """The names of ``num_classes`` classes that were given none:
    ``class_1`` through ``class_<num_classes>``."""
    return [f"class_{c}" for c in range(1, num_classes + 1)]


@dataclass
class SampleSet:
    """Labeled pixels: features (n x B), labels in 1..C, and the flat
    raster offset of each pixel for map rendering. Features pass the
    real-matrix gate ``linalg.as_matrix``, which keeps float32 features
    float32 and makes any others float64; labels and offsets are stored
    as int64 and checked by ``records.int_array``."""

    features: np.ndarray
    labels: np.ndarray
    pixel_indices: np.ndarray

    def __post_init__(self):
        self.features = as_matrix(self.features, "features", keep_float32=True)
        self.labels = int_array(self.labels, np.int64, "labels")
        self.pixel_indices = int_array(self.pixel_indices, np.int64, "pixel_indices")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.pixel_indices.shape != (n,):
            raise ValueError("features, labels and pixel_indices must align")
        if self.labels.size and self.labels.min() < 1:
            raise ValueError("labels must be >= 1 (0 marks unlabeled pixels)")

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, rows) -> "SampleSet":
        """The samples at ``rows`` (positions or a boolean mask)."""
        return SampleSet(self.features[rows], self.labels[rows], self.pixel_indices[rows])


def _payload_path(header_path) -> Path:
    return Path(header_path).with_suffix(".hsir")


def parse_header(header_path) -> dict:
    """Parse and validate a ``.hsih`` header; returns its fields."""
    path = Path(header_path)
    with naming(path):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DataFormatError(f"cannot read header {path}: {exc}") from exc
        lines = text.splitlines()
        if not lines or lines[0].strip() != _MAGIC:
            raise ValueError(f"missing '{_MAGIC}' magic line")
        fields = {}
        for ln in lines[1:]:
            if not ln.strip():
                continue
            if ":" not in ln:
                raise ValueError(f"malformed header line {ln!r}")
            key, value = (part.strip() for part in ln.split(":", 1))
            if key in fields:
                raise ValueError(f"header repeats key {key!r}")
            fields[key] = value
        for key in ("height", "width", "bands", "dtype", "interleave", "byteorder"):
            if key not in fields:
                raise ValueError(f"header missing required key {key!r}")
        for key in ("height", "width", "bands"):
            # int() alone would also take "+1", "1_0" and non-ASCII digits.
            if not (fields[key].isascii() and fields[key].isdigit() and int(fields[key]) >= 1):
                raise ValueError("height/width/bands must be positive integers")
            fields[key] = int(fields[key])
        for key, supported in (("interleave", ("bsq",)), ("byteorder", ("le",)), ("dtype", DTYPES)):
            if fields[key] not in supported:
                raise ValueError(f"unsupported {key} {fields[key]!r}")
    return fields


@contextmanager
def _open_payload(path, dtype: str, height: int, width: int, bands: int):
    """The payload file at ``path``, open for reading once its size is
    checked to be height x width x bands ``dtype`` values. A size
    mismatch, or a failed open or read in the block, raises
    DataFormatError."""
    expected = height * width * bands * np.dtype(DTYPES[dtype]).itemsize
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise DataFormatError(
                    f"{path}: payload is {size} bytes, expected {expected} "
                    f"({height}x{width}x{bands} {dtype})"
                )
            yield fh
    except OSError as exc:
        raise DataFormatError(f"cannot read payload {path}: {exc}") from exc


def read_raw(path, dtype: str, height: int, width: int, bands: int, order="bsq") -> np.ndarray:
    """A raw little-endian payload as a (bands, height, width) array.

    ``dtype`` is a key of ``DTYPES`` and ``order`` one of ``INTERLEAVES``.
    The file's size is checked before anything is read; the payload is
    then read once, and a bil or bip payload comes back as a transposed
    view of it. Raises DataFormatError on a size mismatch or a failed read.
    """
    axes = INTERLEAVES[order]
    shape = (bands, height, width)
    with _open_payload(path, dtype, height, width, bands) as fh:
        values = np.fromfile(fh, dtype=DTYPES[dtype], count=math.prod(shape))
    return values.reshape([shape[axis] for axis in axes]).transpose(np.argsort(axes))


def _fields(header_path, kind: str, dtype: str, bands: int | None = None) -> dict:
    """The header fields of a container that must hold ``dtype`` and, if
    given, ``bands`` bands; raises ValueError otherwise, to be named by
    the caller."""
    fields = parse_header(header_path)
    if fields["dtype"] != dtype:
        raise ValueError(f"{kind} requires dtype {dtype}, got {fields['dtype']}")
    if bands is not None and fields["bands"] != bands:
        raise ValueError(f"{kind} must have bands: {bands}")
    return fields


def load_cube(header_path) -> HsiCube:
    """Load a ``dtype: f32`` scene, read into one float32 array through
    ``read_raw`` and checked once, by ``HsiCube``; raises DataFormatError
    on a malformed header, a size mismatch, or non-finite values."""
    with naming(header_path):
        fields = _fields(header_path, "cube", "f32")
        shape = fields["height"], fields["width"], fields["bands"]
        return HsiCube(*shape, read_raw(_payload_path(header_path), "f32", *shape))


def cube_bands(header_path):
    """The header fields of a ``dtype: f32`` cube, and an iterator that
    reads its payload one band at a time, in band order.

    Each band comes as a (height, width) float32 array. The iterator
    checks the payload's size before it reads the first band, and each
    band for non-finite values, through ``records.real_array``, as it
    reads it. Every failure, of the header or of the payload, raises
    DataFormatError naming the file.
    """
    with naming(header_path):
        fields = _fields(header_path, "cube", "f32")
    height, width, bands = fields["height"], fields["width"], fields["bands"]

    def read():
        payload = _payload_path(header_path)
        with _open_payload(payload, "f32", height, width, bands) as fh, naming(header_path):
            for _ in range(bands):
                band = np.fromfile(fh, dtype=DTYPES["f32"], count=height * width)
                yield real_array(band, np.float32, "cube").reshape(height, width)

    return fields, read()


def load_ground_truth(header_path) -> GroundTruth:
    """Load a ``dtype: u16`` single-band label raster."""
    with naming(header_path):
        fields = _fields(header_path, "ground truth", "u16", bands=1)
        values = read_raw(_payload_path(header_path), "u16", fields["height"], fields["width"], 1)
        names = []
        if fields.get("class_names"):
            names = [s.strip() for s in fields["class_names"].split(",")]
        return GroundTruth(fields["height"], fields["width"], values[0], names)


def _save(header_path, values: np.ndarray, dtype: str, *extra_lines: str) -> Path:
    """Write a (bands, height, width) array as a ``dtype`` container;
    ``extra_lines`` follow the six standard header lines."""
    header = Path(header_path)
    if header.suffix != ".hsih":
        header = header.with_name(header.name + ".hsih")
    bands, height, width = values.shape
    lines = [
        _MAGIC,
        f"height: {height}",
        f"width: {width}",
        f"bands: {bands}",
        f"dtype: {dtype}",
        "interleave: bsq",
        "byteorder: le",
        *extra_lines,
    ]
    # Encoded before the file is opened: a name UTF-8 cannot hold writes nothing.
    header.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    payload = values.astype(DTYPES[dtype], copy=False)
    # A contiguous payload goes out in one call. A transposed view goes
    # band by band: one tofile call would walk it value by value, and a
    # contiguous copy of the whole would double the memory.
    with open(_payload_path(header), "wb") as fh:
        for part in [payload] if payload.flags.c_contiguous else payload:
            np.ascontiguousarray(part).tofile(fh)
    return header


def save_cube(cube: HsiCube, header_path) -> Path:
    """Write the ``.hsih``/``.hsir`` pair for a cube (little-endian BSQ).

    Returns the header path, with the ``.hsih`` suffix added if missing.
    """
    return _save(header_path, cube.values, "f32")


def save_ground_truth(gt: GroundTruth, header_path) -> Path:
    """Write the ``.hsih``/``.hsir`` pair for a label raster."""
    for name in gt.class_names:
        # The reader splits the header with str.splitlines, the names on
        # commas, and strips each name; any name those steps would change
        # does not come back as written.
        if not name or name != name.strip() or "," in name or "".join(name.splitlines()) != name:
            raise ValueError(
                f"class name {name!r} must be non-empty and hold no commas, line breaks, "
                "or leading or trailing whitespace"
            )
    names = [f"class_names: {', '.join(gt.class_names)}"] if gt.class_names else []
    return _save(header_path, gt.labels[np.newaxis], "u16", *names)


def _labeled_pixels(height: int, width: int, gt: GroundTruth):
    """(flat labels, flat offsets of the labeled pixels) of ``gt``, the
    ground truth of a ``height`` x ``width`` cube; raises ValueError when
    the two sizes differ."""
    if (height, width) != (gt.height, gt.width):
        raise ValueError(f"cube is {height}x{width} but ground truth is {gt.height}x{gt.width}")
    flat_labels = gt.labels.reshape(-1)
    return flat_labels, np.nonzero(flat_labels)[0]


def extract_labeled(cube: HsiCube, gt: GroundTruth) -> SampleSet:
    """One sample per labeled pixel, in raster order.

    Features are the pixel's band vector (float64), labels the ground
    truth class ids, pixel_indices the flat ``y * width + x`` offsets.
    """
    flat_labels, indices = _labeled_pixels(cube.height, cube.width, gt)
    # One cast to float64 in C order, which SampleSet keeps as it is.
    features = cube.values.reshape(cube.bands, -1)[:, indices].T
    return SampleSet(
        features=np.asarray(features, dtype=np.float64, order="C"),
        labels=flat_labels[indices],
        pixel_indices=indices,
    )


def _class_shuffles(labels: np.ndarray, seed: int):
    """Each class's positions in ``labels``, in ascending class order,
    shuffled by one SplitMix64(seed) stream: yields (class, positions)."""
    rng = SplitMix64(seed)
    for cls in np.unique(labels):
        positions = np.nonzero(labels == cls)[0]
        yield cls, positions[rng.permutation(len(positions))]


def _train_mask(labels: np.ndarray, train_fraction: float, seed: int) -> np.ndarray:
    """Which of ``labels``' positions go to train, by the per-class rule
    of ``stratified_split``."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    in_train = np.zeros(len(labels), dtype=bool)
    for cls, perm in _class_shuffles(labels, seed):
        n_c = len(perm)
        if n_c == 1:
            warnings.warn(
                f"class {int(cls)} has a single sample; assigning it to train",
                stacklevel=3,
            )
        n_train = max(min(int(np.floor(train_fraction * n_c + 0.5)), n_c - 1), 1)
        in_train[perm[:n_train]] = True
    return in_train


def stratified_split(
    samples: SampleSet, train_fraction: float, seed: int
) -> tuple[SampleSet, SampleSet]:
    """Seeded per-class train/test split.

    Each class with n_c samples contributes round-half-up(fraction*n_c)
    training samples, clamped to [1, n_c - 1] so both sides see every
    class; a single-sample class goes entirely to train with a warning.
    Selection shuffles within each class; both outputs keep raster order.
    """
    in_train = _train_mask(samples.labels, train_fraction, seed)
    return samples.take(in_train), samples.take(~in_train)


def load_split(
    cube_header, gt: GroundTruth, train_fraction: float, seed: int
) -> tuple[SampleSet, SampleSet]:
    """``stratified_split(extract_labeled(load_cube(cube_header), gt),
    train_fraction, seed)``, read band by band, with the samples kept in
    the cube's float32.

    The labels are split first; each band of the cube is then read,
    checked for non-finite values (unlabeled pixels included) and its
    train and test pixels are written into their own float32 matrices.
    So the cube is never held whole: the peak is the labeled samples, in
    half the memory of float64, plus one band. The samples upcast
    exactly to ``extract_labeled``'s float64 ones, and every stage gives
    the same bytes on either: a PCA fit and projection, and each
    classifier, which computes on the float64 copy. Raises
    DataFormatError, naming the cube's file, on any fault ``load_cube``
    rejects or on a size that differs from the ground truth's.
    """
    fields, bands = cube_bands(cube_header)
    with naming(cube_header):
        flat_labels, indices = _labeled_pixels(fields["height"], fields["width"], gt)
    in_train = _train_mask(flat_labels[indices], train_fraction, seed)
    rows = (indices[in_train], indices[~in_train])
    features = [np.empty((len(r), fields["bands"]), dtype=np.float32) for r in rows]
    for b, band in enumerate(bands):
        for r, f in zip(rows, features):
            f[:, b] = band.reshape(-1)[r]
    train, test = (SampleSet(f, flat_labels[r], r) for r, f in zip(rows, features))
    return train, test


def stratified_folds(labels, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded per-class partition of the positions of ``labels`` into
    ``folds`` disjoint, ascending position arrays.

    Each class's shuffled positions are dealt out in ``folds`` contiguous
    chunks (``np.array_split``), so a class's count differs by at most 1
    between folds.
    """
    check_int(folds, "folds", 1)
    labels = np.asarray(labels)
    fold_of = np.empty(len(labels), dtype=np.int64)
    for _, perm in _class_shuffles(labels, seed):
        for f, chunk in enumerate(np.array_split(perm, folds)):
            fold_of[chunk] = f
    return [np.nonzero(fold_of == f)[0] for f in range(folds)]

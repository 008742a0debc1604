"""Property tests for the container format: parse_header either returns
validated fields or raises DataFormatError, whatever bytes the header
file holds, save_cube -> load_cube returns the cube it was given, and
`hsikit convert` reads raw bsq, bil and bip payloads back in (band, row,
column) order, stratified_folds deals each class out evenly over
disjoint folds, and load_split gives the bytes of the whole-cube path."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hsikit.cli import main
from hsikit.errors import DataFormatError
from hsikit.hsi_data import (
    GroundTruth,
    HsiCube,
    extract_labeled,
    load_cube,
    load_split,
    parse_header,
    save_cube,
    stratified_folds,
    stratified_split,
)

VALID = {
    "height": "3",
    "width": "2",
    "bands": "1",
    "dtype": "f32",
    "interleave": "bsq",
    "byteorder": "le",
}
VALUES = st.sampled_from(["0", "-2", "1.5", " 7 ", "u16", "bip", "be", ""]) | st.text(max_size=8)
# Each required key is mostly valid, sometimes missing (None) or wrong, so
# a fair share of the draws parses and the rest fails each check in turn.
FIELDS = st.fixed_dictionaries(
    {k: st.one_of(st.just(v), st.just(v), st.just(v), st.none(), VALUES) for k, v in VALID.items()}
)
EXTRA_LINES = st.lists(
    st.builds(
        lambda key, sep, value: f"{key}{sep}{value}",
        st.sampled_from(["class_names", "height", "note", ""]),
        st.sampled_from([": ", ":", " "]),
        VALUES,
    ),
    max_size=3,
)


def _header_bytes(magic, fields, extra, tail):
    lines = [magic] + [f"{k}: {v}" for k, v in fields.items() if v is not None] + extra
    return "\n".join(lines).encode("utf-8") + tail


HEADERS = st.one_of(
    st.binary(max_size=64),
    st.builds(
        _header_bytes,
        st.sampled_from(["hsih 1", "hsih 1", " hsih 1 ", "hsih 2", ""]),
        FIELDS,
        EXTRA_LINES,
        st.sampled_from([b"", b"\n", b"\xff\xfe", b"\x80"]),
    ),
)


@settings(max_examples=400, deadline=None, database=None)
@given(header=HEADERS)
def test_parse_header_returns_valid_fields_or_raises(header):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.hsih"
        path.write_bytes(header)
        try:
            fields = parse_header(path)
        except DataFormatError:
            return
    for key in ("height", "width", "bands"):
        assert isinstance(fields[key], int) and fields[key] >= 1
    assert fields["dtype"] in ("f32", "u16")
    assert fields["interleave"] == "bsq"
    assert fields["byteorder"] == "le"


FINITE_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
# Cubes in (band, row, column) order, 1 to 5 along each axis.
CUBES = hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=5).flatmap(
    lambda shape: hnp.arrays(np.float32, shape, elements=FINITE_F32)
)


@settings(max_examples=100, deadline=None, database=None)
@given(values=CUBES)
def test_save_cube_load_cube_round_trip(values):
    bands, height, width = values.shape
    cube = HsiCube(height=height, width=width, bands=bands, values=values)
    with tempfile.TemporaryDirectory() as tmp:
        back = load_cube(save_cube(cube, Path(tmp) / "scene.hsih"))
    assert (back.height, back.width, back.bands) == (height, width, bands)
    assert back.values.dtype == np.float32
    assert back.values.tobytes() == values.tobytes()


# Raw payload axes of each interleave, as a transpose of (band, row, column).
RAW_AXES = {"bsq": (0, 1, 2), "bil": (1, 0, 2), "bip": (1, 2, 0)}


@settings(max_examples=60, deadline=None, database=None)
@given(values=CUBES, order=st.sampled_from(sorted(RAW_AXES)))
def test_convert_load_cube_round_trip(values, order):
    bands, height, width = values.shape
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "scene.raw"
        raw.write_bytes(values.transpose(RAW_AXES[order]).astype("<f4").tobytes())
        out = Path(tmp) / "scene"
        code = main(
            ["convert", "--input", str(raw), "--height", str(height), "--width", str(width),
             "--bands", str(bands), "--dtype", "f32", "--order", order, "--output", str(out)]
        )
        assert code == 0
        back = load_cube(out.with_suffix(".hsih"))
    assert (back.bands, back.height, back.width) == values.shape
    assert back.values.tobytes() == values.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    labels=st.lists(st.integers(1, 4), max_size=40),
    folds=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
def test_stratified_folds_partition_each_class_evenly(labels, folds, seed):
    labels = np.array(labels, dtype=np.int64)
    parts = stratified_folds(labels, folds, seed)
    assert len(parts) == folds
    # Disjoint, ascending, and together every position exactly once.
    assert all(np.all(np.diff(part) > 0) for part in parts)
    assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(len(labels)))
    for cls in np.unique(labels):
        counts = [int(np.sum(labels[part] == cls)) for part in parts]
        assert max(counts) - min(counts) <= 1
    again = stratified_folds(labels, folds, seed)
    assert all(np.array_equal(a, b) for a, b in zip(parts, again))


def _split_with_warnings(split):
    """``split()``'s (train, test) and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        sides = split()
    return sides, [str(w.message) for w in seen]


@settings(max_examples=100, deadline=None, database=None)
@given(
    values=CUBES,
    data=st.data(),
    singleton=st.booleans(),
    fraction=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**64 - 1),
)
def test_load_split_matches_the_whole_cube_path(values, data, singleton, fraction, seed):
    bands, height, width = values.shape
    labels = data.draw(hnp.arrays(np.uint16, (height, width), elements=st.integers(0, 4)))
    if singleton:
        labels.flat[data.draw(st.integers(0, labels.size - 1))] = 5  # one pixel of class 5
    gt = GroundTruth(height, width, labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_cube(HsiCube(height, width, bands, values), Path(tmp) / "scene.hsih")
        expected, expected_warnings = _split_with_warnings(
            lambda: stratified_split(extract_labeled(load_cube(path), gt), fraction, seed)
        )
        got, got_warnings = _split_with_warnings(lambda: load_split(path, gt, fraction, seed))
    assert got_warnings == expected_warnings
    if singleton:
        assert "class 5 has a single sample; assigning it to train" in got_warnings
    for want, have in zip(expected, got):
        for name in ("features", "labels", "pixel_indices"):
            a, b = getattr(want, name), getattr(have, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

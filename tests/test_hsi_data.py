"""Tests for the container format, labeled-pixel extraction, and the
stratified split."""

import re
import tracemalloc

import numpy as np
import pytest

from hsikit.errors import DataFormatError
from hsikit.hsi_data import (
    GroundTruth,
    HsiCube,
    SampleSet,
    extract_labeled,
    load_cube,
    load_ground_truth,
    load_split,
    parse_header,
    read_raw,
    save_cube,
    save_ground_truth,
    stratified_folds,
    stratified_split,
)
from hsikit.rng import SplitMix64

# Per-class pixel counts in the spirit of two classic airborne scenes:
# a 145 x 145 16-class scene with 10249 labeled pixels and a 610 x 340
# 9-class scene with 42776.
SMALL_SCENE_COUNTS = [46, 1428, 830, 237, 483, 730, 28, 478, 20, 972, 2455, 593, 205, 1265, 386, 93]
LARGE_SCENE_COUNTS = [6631, 18649, 2099, 3064, 1345, 5029, 1330, 3682, 947]


def tiny_cube():
    values = np.arange(2 * 2 * 3, dtype=np.float32).reshape(3, 2, 2)
    return HsiCube(height=2, width=2, bands=3, values=values)


def labels_with_counts(height, width, counts, seed):
    """Label raster with exactly counts[c-1] pixels of class c, rest 0."""
    total = height * width
    labeled = sum(counts)
    assert labeled <= total
    flat = np.zeros(total, dtype=np.uint16)
    perm = SplitMix64(seed).permutation(total)
    start = 0
    for cls, n in enumerate(counts, start=1):
        flat[perm[start : start + n]] = cls
        start += n
    return flat.reshape(height, width)


# ------------------------------------------------------------- containers


def test_cube_round_trip(tmp_path):
    cube = tiny_cube()
    path = save_cube(cube, tmp_path / "scene.hsih")
    back = load_cube(path)
    assert back.height == 2 and back.width == 2 and back.bands == 3
    assert np.array_equal(back.values, cube.values)


def test_cube_round_trip_payload_bytes(tmp_path):
    cube = tiny_cube()
    first = save_cube(cube, tmp_path / "a.hsih")
    second = save_cube(load_cube(first), tmp_path / "b.hsih")
    assert first.with_suffix(".hsir").read_bytes() == second.with_suffix(".hsir").read_bytes()
    # Same header apart from nothing: both describe the same raster.
    assert first.read_text() == second.read_text()


def test_save_appends_header_suffix(tmp_path):
    path = save_cube(tiny_cube(), tmp_path / "scene")
    assert path.name == "scene.hsih"
    assert path.exists()
    assert path.with_suffix(".hsir").exists()


def test_ground_truth_round_trip_with_names(tmp_path):
    labels = np.array([[0, 1], [2, 2]], dtype=np.uint16)
    gt = GroundTruth(2, 2, labels, class_names=["grass", "road"])
    path = save_ground_truth(gt, tmp_path / "gt.hsih")
    back = load_ground_truth(path)
    assert np.array_equal(back.labels, labels)
    assert back.class_names == ["grass", "road"]
    assert back.num_classes == 2


def test_ground_truth_round_trip_without_names(tmp_path):
    gt = GroundTruth(1, 3, np.array([[0, 3, 1]], dtype=np.uint16))
    back = load_ground_truth(save_ground_truth(gt, tmp_path / "gt.hsih"))
    assert back.class_names == []
    assert back.num_classes == 3


def test_class_name_comma_rejected(tmp_path):
    gt = GroundTruth(1, 1, np.array([[1]], dtype=np.uint16), class_names=["a,b"])
    with pytest.raises(ValueError):
        save_ground_truth(gt, tmp_path / "gt.hsih")


@pytest.mark.parametrize("name", ["a\nb", "x\x0cy", "x\u2028y", "a\r"])
def test_class_name_line_break_rejected(tmp_path, name):
    # Each of these ends the header line where str.splitlines reads it.
    gt = GroundTruth(1, 1, np.array([[1]], dtype=np.uint16), class_names=[name])
    with pytest.raises(ValueError, match="line breaks"):
        save_ground_truth(gt, tmp_path / "gt.hsih")
    assert not (tmp_path / "gt.hsih").exists()


@pytest.mark.parametrize("names", [[" a", "b"], ["a", "b\t"], [""], ["a", ""], [" "]])
def test_class_name_that_would_load_back_changed_rejected(tmp_path, names):
    # The reader strips each name, and a blank list reads as no names:
    # [" a", "b"] would load as ["a", "b"], and [""] as [], which takes an
    # all-zero raster's num_classes from 1 to 0.
    gt = GroundTruth(1, 1, np.array([[0]], dtype=np.uint16), class_names=names)
    with pytest.raises(ValueError, match="non-empty.*whitespace"):
        save_ground_truth(gt, tmp_path / "gt.hsih")
    assert not (tmp_path / "gt.hsih").exists()


def test_class_name_utf8_cannot_encode_writes_nothing(tmp_path):
    gt = GroundTruth(1, 1, np.array([[1]], dtype=np.uint16), class_names=["a\udc80"])
    with pytest.raises(UnicodeEncodeError):
        save_ground_truth(gt, tmp_path / "gt.hsih")
    assert list(tmp_path.iterdir()) == []


def test_parse_header_fields(tmp_path):
    path = save_cube(tiny_cube(), tmp_path / "scene.hsih")
    fields = parse_header(path)
    assert fields["height"] == 2
    assert fields["width"] == 2
    assert fields["bands"] == 3
    assert fields["dtype"] == "f32"
    assert fields["interleave"] == "bsq"
    assert fields["byteorder"] == "le"


def write_header(tmp_path, text, payload=b""):
    header = tmp_path / "bad.hsih"
    header.write_text(text, encoding="utf-8")
    header.with_suffix(".hsir").write_bytes(payload)
    return header


GOOD_HEADER = "hsih 1\nheight: 1\nwidth: 1\nbands: 1\ndtype: f32\ninterleave: bsq\nbyteorder: le\n"


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("hsih 1", "hsih 2"),
        lambda t: t.split("\n", 1)[1],  # drop the magic line
        lambda t: t.replace("height: 1\n", ""),
        lambda t: t.replace("height: 1", "height: zero"),
        lambda t: t.replace("height: 1", "height: 0"),
        lambda t: t.replace("height: 1", "height: -3"),
        lambda t: t.replace("interleave: bsq", "interleave: bip"),
        lambda t: t.replace("byteorder: le", "byteorder: be"),
        lambda t: t.replace("dtype: f32", "dtype: f64"),
        lambda t: t.replace("width: 1", "width 1"),  # missing colon
        # int() reads each of these as 1; the format takes ASCII digits only.
        lambda t: t.replace("height: 1", "height: +1"),
        lambda t: t.replace("width: 1", "width: \u0661"),  # Arabic-Indic one
        lambda t: t.replace("bands: 1", "bands: 0_1"),
    ],
)
def test_malformed_headers_rejected(tmp_path, mangle):
    header = write_header(tmp_path, mangle(GOOD_HEADER), payload=b"\x00" * 4)
    with pytest.raises(DataFormatError):
        load_cube(header)


@pytest.mark.parametrize("line", ["height: 7", "class_names: x, y"])
def test_repeated_header_key_rejected(tmp_path, line):
    labels = np.array([[0, 1, 2]] * 6, dtype=np.uint16)
    path = save_ground_truth(GroundTruth(6, 3, labels, ["a", "b"]), tmp_path / "gt.hsih")
    path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    key = line.split(":")[0]
    for load in (parse_header, load_ground_truth):
        with pytest.raises(DataFormatError, match=f"gt.hsih: header repeats key '{key}'"):
            load(path)


def test_non_utf8_header_is_a_data_format_error(tmp_path):
    header = tmp_path / "bad.hsih"
    header.write_bytes(b"\xff\xfe" + GOOD_HEADER.encode("utf-8"))
    header.with_suffix(".hsir").write_bytes(b"\x00" * 4)
    for load in (parse_header, load_cube, load_ground_truth):
        with pytest.raises(DataFormatError, match="bad.hsih"):
            load(header)


def test_missing_header_file(tmp_path):
    with pytest.raises(DataFormatError):
        load_cube(tmp_path / "nope.hsih")


def test_truncated_payload(tmp_path):
    path = save_cube(tiny_cube(), tmp_path / "scene.hsih")
    payload = path.with_suffix(".hsir")
    payload.write_bytes(payload.read_bytes()[:-2])
    with pytest.raises(DataFormatError, match="bytes"):
        load_cube(path)


def test_oversized_payload(tmp_path):
    path = save_cube(tiny_cube(), tmp_path / "scene.hsih")
    payload = path.with_suffix(".hsir")
    payload.write_bytes(payload.read_bytes() + b"\x00\x00")
    with pytest.raises(DataFormatError):
        load_cube(path)


def test_non_finite_payload_rejected(tmp_path):
    header = write_header(
        tmp_path, GOOD_HEADER, payload=np.array([np.nan], dtype="<f4").tobytes()
    )
    with pytest.raises(DataFormatError, match="non-finite"):
        load_cube(header)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cube_rejects_each_kind_of_non_finite_value(bad):
    values = tiny_cube().values.copy()
    values[1, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        HsiCube(height=2, width=2, bands=3, values=values)


def test_cube_rejects_a_value_float32_cannot_hold():
    # The cast to float32 makes it infinite; the finite check, not an
    # overflow warning, reports it.
    values = np.zeros((3, 2, 2))
    values[2, 1, 0] = -1e300
    with pytest.raises(ValueError, match="^cube contains non-finite values$"):
        HsiCube(height=2, width=2, bands=3, values=values)


def test_load_cube_holds_the_payload_once(tmp_path):
    # 40 x 50 x 500 f32 is a 4 MB payload; reading, converting and
    # checking it must not hold a second copy (or a per-value mask).
    values = SplitMix64(7).normal_matrix(500, 40 * 50).astype(np.float32)
    path = save_cube(HsiCube(40, 50, 500, values.reshape(500, 40, 50)), tmp_path / "big")
    payload_bytes = path.with_suffix(".hsir").stat().st_size
    del values
    tracemalloc.start()
    try:
        cube = load_cube(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cube.values.nbytes == payload_bytes
    assert peak < 1.25 * payload_bytes


def test_save_cube_writes_without_copying_the_payload(tmp_path):
    # 40 x 50 x 500 f32 is a 4 MB payload, written straight from the cube.
    values = SplitMix64(7).normal_matrix(500, 40 * 50).astype(np.float32)
    cube = HsiCube(40, 50, 500, values.reshape(500, 40, 50))
    del values
    tracemalloc.start()
    try:
        path = save_cube(cube, tmp_path / "big")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.with_suffix(".hsir").read_bytes() == cube.values.astype("<f4").tobytes()
    assert peak < 0.1 * cube.values.nbytes


@pytest.mark.parametrize(
    "order, raw_axes", [("bsq", (0, 1, 2)), ("bil", (1, 0, 2)), ("bip", (1, 2, 0))]
)
@pytest.mark.parametrize("dtype, np_dtype", [("f32", "<f4"), ("u16", "<u2")])
def test_read_raw_matches_a_reference_transpose(tmp_path, order, raw_axes, dtype, np_dtype):
    bands, height, width = 3, 4, 5
    values = np.arange(bands * height * width).astype(np_dtype).reshape(bands, height, width)
    raw = tmp_path / "dump.bin"
    raw.write_bytes(np.ascontiguousarray(values.transpose(raw_axes)).tobytes())
    back = read_raw(raw, dtype, height, width, bands, order)
    assert back.shape == (bands, height, width)
    assert back.dtype == np.dtype(np_dtype)
    assert np.array_equal(back, values)


def test_read_raw_names_sizes_on_mismatch(tmp_path):
    raw = tmp_path / "dump.bin"
    raw.write_bytes(b"\x00" * 10)
    with pytest.raises(DataFormatError, match=r"payload is 10 bytes, expected 12 \(1x2x3 u16\)"):
        read_raw(raw, "u16", 1, 2, 3)
    with pytest.raises(DataFormatError, match="cannot read payload"):
        read_raw(tmp_path / "missing.bin", "f32", 1, 1, 1)


def test_cube_rejects_u16_header(tmp_path):
    gt = GroundTruth(1, 1, np.array([[1]], dtype=np.uint16))
    path = save_ground_truth(gt, tmp_path / "gt.hsih")
    with pytest.raises(DataFormatError, match="f32"):
        load_cube(path)


def test_ground_truth_rejects_f32_header(tmp_path):
    path = save_cube(tiny_cube(), tmp_path / "scene.hsih")
    with pytest.raises(DataFormatError, match="u16"):
        load_ground_truth(path)


def test_ground_truth_rejects_multiband(tmp_path):
    header = write_header(
        tmp_path,
        GOOD_HEADER.replace("bands: 1", "bands: 2").replace("dtype: f32", "dtype: u16"),
        payload=b"\x00" * 4,
    )
    with pytest.raises(DataFormatError, match="bands"):
        load_ground_truth(header)


def test_label_exceeding_named_classes(tmp_path):
    header = write_header(
        tmp_path,
        GOOD_HEADER.replace("dtype: f32", "dtype: u16") + "class_names: only_one\n",
        payload=np.array([5], dtype="<u2").tobytes(),
    )
    with pytest.raises(DataFormatError):
        load_ground_truth(header)


def test_cube_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        HsiCube(2, 2, 3, np.zeros((3, 2, 1), dtype=np.float32))
    bad = np.zeros((1, 1, 1), dtype=np.float32)
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        HsiCube(1, 1, 1, bad)


def test_ground_truth_validates_shape():
    with pytest.raises(ValueError, match=r"labels shape \(2, 3\) != \(3, 2\)"):
        GroundTruth(3, 2, np.zeros((2, 3), dtype=np.uint16))


@pytest.mark.parametrize(
    "labels, message",
    [
        (np.array([[1, -1]]), "labels must lie in 0..65535, got -1"),
        ([[1, 70000]], "labels must lie in 0..65535, got 70000"),
        ([[1.0, 2.7]], "labels must be an integer, got 2.7"),
        ([[1, True]], "labels must be an integer, got True"),
    ],
)
def test_ground_truth_rejects_labels_a_uint16_cast_would_change(labels, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        GroundTruth(1, 2, labels)


@pytest.mark.parametrize(
    "labels, indices, field",
    [
        ([1.5, 2.9], [0, 7], "labels"),
        ([1, 2], [0.2, 7.8], "pixel_indices"),
        ([1, True], [0, 1], "labels"),
        ([1, 2], np.array([0, 2**63], dtype=np.uint64), "pixel_indices"),
    ],
)
def test_sample_set_rejects_values_an_int64_cast_would_change(labels, indices, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        SampleSet(np.zeros((2, 3)), labels, indices)


def test_containers_keep_integral_values_and_integer_arrays():
    assert GroundTruth(1, 2, [[1.0, 2]]).labels.tolist() == [[1, 2]]
    # An integer array of the container's dtype is kept, with no entry-wise pass.
    labels = np.array([[0, 65535]], dtype=np.uint16)
    assert GroundTruth(1, 2, labels).labels is labels
    rows = np.array([3, 9])
    samples = SampleSet(np.zeros((2, 3)), rows, rows)
    assert samples.labels is rows and samples.pixel_indices is rows


# --------------------------------------------------------- extract_labeled


def test_extract_raster_order_and_values():
    cube = tiny_cube()  # band b, pixel (y, x) holds 4*b + 2*y + x
    gt = GroundTruth(2, 2, np.array([[0, 2], [1, 0]], dtype=np.uint16))
    samples = extract_labeled(cube, gt)
    assert len(samples) == 2
    # Raster order: (0,1) before (1,0).
    assert list(samples.pixel_indices) == [1, 2]
    assert list(samples.labels) == [2, 1]
    assert np.allclose(samples.features[0], [1.0, 5.0, 9.0])
    assert np.allclose(samples.features[1], [2.0, 6.0, 10.0])
    assert samples.features.dtype == np.float64


def test_extract_all_zero_ground_truth():
    cube = tiny_cube()
    gt = GroundTruth(2, 2, np.zeros((2, 2), dtype=np.uint16))
    samples = extract_labeled(cube, gt)
    assert len(samples) == 0


def test_extract_shape_mismatch():
    gt = GroundTruth(3, 2, np.zeros((3, 2), dtype=np.uint16))
    with pytest.raises(ValueError):
        extract_labeled(tiny_cube(), gt)


def test_extract_small_scene_counts():
    h, w, b = 145, 145, 4
    labels = labels_with_counts(h, w, SMALL_SCENE_COUNTS, seed=1)
    cube = HsiCube(h, w, b, SplitMix64(2).normals(b * h * w).reshape(b, h, w).astype(np.float32))
    samples = extract_labeled(cube, GroundTruth(h, w, labels))
    assert len(samples) == 10249
    counts = np.bincount(samples.labels, minlength=17)[1:]
    assert list(counts) == SMALL_SCENE_COUNTS


def test_extract_large_scene_counts():
    h, w = 610, 340
    labels = labels_with_counts(h, w, LARGE_SCENE_COUNTS, seed=3)
    cube = HsiCube(h, w, 1, np.zeros((1, h, w), dtype=np.float32))
    samples = extract_labeled(cube, GroundTruth(h, w, labels))
    assert len(samples) == 42776
    counts = np.bincount(samples.labels, minlength=10)[1:]
    assert list(counts) == LARGE_SCENE_COUNTS


# -------------------------------------------------------- stratified_split


def sample_set(labels, seed=0):
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    return SampleSet(
        features=SplitMix64(seed).normal_matrix(n, 3),
        labels=labels,
        pixel_indices=np.arange(n, dtype=np.int64),
    )


def test_split_rounding_seven_three():
    # 10 samples at 0.7: round-half-up(7.0) = 7 train, 3 test.
    train, test = stratified_split(sample_set([1] * 10), 0.7, seed=0)
    assert len(train) == 7
    assert len(test) == 3


def test_split_rounding_fourteen_six():
    train, test = stratified_split(sample_set([1] * 20), 0.7, seed=0)
    assert len(train) == 14
    assert len(test) == 6


def test_split_round_half_up():
    # 5 samples at 0.5: 2.5 rounds half-up to 3.
    train, test = stratified_split(sample_set([1] * 5), 0.5, seed=0)
    assert len(train) == 3
    assert len(test) == 2


def test_split_clamps_to_leave_one_out():
    # 0.99 of 10 rounds to 10, clamped to 9 so the test side is not empty.
    train, test = stratified_split(sample_set([1] * 10), 0.99, seed=0)
    assert len(train) == 9
    assert len(test) == 1
    # Symmetric clamp at the low end.
    train, test = stratified_split(sample_set([1] * 10), 0.01, seed=0)
    assert len(train) == 1
    assert len(test) == 9


def test_split_is_partition():
    labels = [1] * 12 + [2] * 5 + [3] * 30
    samples = sample_set(labels, seed=4)
    train, test = stratified_split(samples, 0.6, seed=7)
    merged = np.sort(np.concatenate([train.pixel_indices, test.pixel_indices]))
    assert np.array_equal(merged, samples.pixel_indices)
    assert len(np.intersect1d(train.pixel_indices, test.pixel_indices)) == 0


def test_split_per_class_counts():
    labels = [1] * 10 + [2] * 7
    train, test = stratified_split(sample_set(labels), 0.7, seed=1)
    assert (np.bincount(train.labels, minlength=3)[1:] == [7, 5]).all()
    assert (np.bincount(test.labels, minlength=3)[1:] == [3, 2]).all()


def test_split_outputs_in_raster_order():
    labels = [2, 1, 2, 1, 2, 1, 2, 1, 2, 1]
    train, test = stratified_split(sample_set(labels, seed=5), 0.6, seed=9)
    assert (np.diff(train.pixel_indices) > 0).all()
    assert (np.diff(test.pixel_indices) > 0).all()


def test_split_rows_carried_intact():
    samples = sample_set([1] * 8 + [2] * 8, seed=6)
    train, _ = stratified_split(samples, 0.5, seed=2)
    for row, pix in zip(train.features, train.pixel_indices):
        assert np.array_equal(row, samples.features[pix])


def test_split_deterministic_and_seed_sensitive():
    samples = sample_set([1] * 50 + [2] * 50, seed=8)
    t1, _ = stratified_split(samples, 0.5, seed=3)
    t2, _ = stratified_split(samples, 0.5, seed=3)
    t3, _ = stratified_split(samples, 0.5, seed=4)
    assert np.array_equal(t1.pixel_indices, t2.pixel_indices)
    assert not np.array_equal(t1.pixel_indices, t3.pixel_indices)


def test_split_single_sample_class_warns_and_goes_to_train():
    samples = sample_set([1] * 6 + [2])
    with pytest.warns(UserWarning, match="single sample"):
        train, test = stratified_split(samples, 0.5, seed=0)
    assert (train.labels == 2).sum() == 1
    assert (test.labels == 2).sum() == 0


def test_split_fraction_validation():
    samples = sample_set([1, 1, 2, 2])
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            stratified_split(samples, bad, seed=0)


def test_load_split_single_sample_class_warns_at_its_caller(tmp_path):
    path = save_cube(tiny_cube(), tmp_path / "scene.hsih")
    gt = GroundTruth(2, 2, np.array([[1, 1], [1, 2]], dtype=np.uint16))
    with pytest.warns(UserWarning, match="class 2 has a single sample") as seen:
        train, test = load_split(path, gt, 0.5, seed=0)
    assert seen[0].filename == __file__
    assert list(train.labels).count(2) == 1 and 2 not in test.labels


def test_load_split_holds_the_samples_and_a_few_bands(tmp_path):
    # A 40 x 50 x 500 cube, a 4 MB payload, with one pixel in five labeled
    # as on the 610 x 340 scene: the samples take 0.8 MB as float32.
    values = SplitMix64(7).normal_matrix(500, 40 * 50).astype(np.float32)
    path = save_cube(HsiCube(40, 50, 500, values.reshape(500, 40, 50)), tmp_path / "big")
    payload_bytes = path.with_suffix(".hsir").stat().st_size
    del values
    labels = np.zeros(40 * 50, dtype=np.uint16)
    labels[::5] = np.arange(400) % 4 + 1
    gt = GroundTruth(40, 50, labels.reshape(40, 50))
    load_split(path, gt, 0.7, seed=3)  # numpy sets up its sort and unique once
    tracemalloc.start()
    try:
        train, test = load_split(path, gt, 0.7, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    samples_bytes = train.features.nbytes + test.features.nbytes
    assert samples_bytes == 400 * 500 * 4
    band_bytes = 40 * 50 * 4
    assert peak < samples_bytes + 4 * band_bytes + 2**14
    assert peak < 0.5 * payload_bytes


def test_load_split_float32_samples_upcast_to_the_float64_ones(tmp_path):
    values = (SplitMix64(11).normal_matrix(7, 30 * 20) * 100.0).astype(np.float32)
    path = save_cube(HsiCube(30, 20, 7, values.reshape(7, 30, 20)), tmp_path / "scene")
    labels = np.arange(30 * 20) % 4  # one pixel in four unlabeled
    gt = GroundTruth(30, 20, labels.reshape(30, 20))
    wide = stratified_split(extract_labeled(load_cube(path), gt), 0.6, seed=2)
    narrow = load_split(path, gt, 0.6, seed=2)
    for s64, s32 in zip(wide, narrow):
        assert s64.features.dtype == np.float64 and s32.features.dtype == np.float32
        assert s32.features.astype(np.float64).tobytes() == s64.features.tobytes()
        assert np.array_equal(s32.labels, s64.labels)
        assert np.array_equal(s32.pixel_indices, s64.pixel_indices)
        # A SampleSet keeps float32 features as they are.
        assert SampleSet(s32.features, s32.labels, s32.pixel_indices).features is s32.features


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.zeros((2, 3)), np.array([0, 1]), np.array([0, 1]))
    with pytest.raises(ValueError):
        SampleSet(np.zeros((2, 3)), np.array([1]), np.array([0, 1]))


def test_sample_set_rejects_one_dimensional_features():
    with pytest.raises(ValueError, match="features must be a 2-D matrix, got ndim=1"):
        SampleSet(np.arange(4.0), [1, 1, 2, 2], np.arange(4))


def test_stratified_folds_take_an_integer_count_of_at_least_one():
    labels = [1, 1, 2, 2]
    with pytest.raises(ValueError, match="folds must be an integer, got 1.5"):
        stratified_folds(labels, 1.5, 0)
    with pytest.raises(ValueError, match="folds must be >= 1, got 0"):
        stratified_folds(labels, 0, 0)
    assert [part.tolist() for part in stratified_folds(labels, 1, 0)] == [[0, 1, 2, 3]]

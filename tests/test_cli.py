"""End-to-end tests for the command-line driver."""

import argparse
import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hsikit
from hsikit.classify import GbdtModel, SvmModel, gbdt, svm
from hsikit.classify import _pool as pool
from hsikit.cli import (
    StageError,
    UsageError,
    _canonical_json,
    build_parser,
    exit_code_for,
    main,
    method_label,
    resolve_config,
)
from hsikit.errors import (
    ConvergenceError,
    DataFormatError,
    DegenerateDataError,
    WorkerError,
)
from hsikit.dimred import PcaModel
from hsikit.evaluation import EvalReport
from hsikit.hsi_data import HsiCube, load_cube, load_ground_truth, save_cube, save_ground_truth
from hsikit.synthetic import gaussian_scene

ARTIFACTS = (
    "config.json",
    "report.json",
    "predictions.json",
    "model.json",
    "map.ppm",
    "timings.json",
)


@pytest.fixture
def scene(tmp_path):
    cube, gt = gaussian_scene(12, 12, 8, 3, seed=5)
    cube_path = save_cube(cube, tmp_path / "scene.hsih")
    gt_path = save_ground_truth(gt, tmp_path / "scene_gt.hsih")
    return str(cube_path), str(gt_path)


def run_dir_bytes(out_dir, skip_timings=True):
    blobs = {}
    for name in ARTIFACTS:
        if skip_timings and name == "timings.json":
            continue
        blobs[name] = (out_dir / name).read_bytes()
    return blobs


# ------------------------------------------------------------ resolve_config


def test_resolve_config_defaults():
    config = resolve_config({"cube": "a.hsih", "ground_truth": "b.hsih"}, {})
    assert config == {
        "cube": "a.hsih",
        "ground_truth": "b.hsih",
        "output": "hsikit_run",
        "train_fraction": 0.7,
        "seed": 0,
        "reduction": {"method": "none"},
        "classifier": {
            "kind": "svm",
            "params": {"c": 600.0, "gamma": 0.5, "tolerance": 1e-3, "max_iter": 100_000},
            "grid": None,
        },
    }


def test_resolve_config_flags_beat_file():
    file_config = {"cube": "a", "ground_truth": "b", "seed": 3, "output": "x"}
    config = resolve_config(file_config, {"seed": 9, "output": None})
    assert config["seed"] == 9
    assert config["output"] == "x"  # None override leaves the file value


def test_resolve_config_reduction_entries():
    base = {"cube": "a", "ground_truth": "b"}
    config = resolve_config({**base, "reduction": {"method": "pca", "components": 5}}, {})
    assert config["reduction"] == {"method": "pca", "components": 5}
    config = resolve_config({**base, "reduction": {"method": "rpca", "components": 4}}, {})
    assert config["reduction"] == {
        "method": "rpca",
        "components": 4,
        "oversampling": 10,
        "power_iterations": 2,
    }


def test_resolve_config_gbdt_defaults():
    base = {"cube": "a", "ground_truth": "b"}
    config = resolve_config({**base, "classifier": {"kind": "gbdt"}}, {})
    assert config["classifier"]["kind"] == "gbdt"
    assert config["classifier"]["params"]["num_trees"] == 200
    assert config["classifier"]["params"]["goss_top_rate"] == 0.2
    assert "seed" not in config["classifier"]["params"]


def test_resolve_config_grid_true_fills_defaults():
    base = {"cube": "a", "ground_truth": "b"}
    config = resolve_config({**base, "classifier": {"kind": "svm", "grid": True}}, {})
    grid = config["classifier"]["grid"]
    assert grid["c"] == [1.0, 10.0, 100.0, 600.0, 1000.0]
    assert grid["gamma"] == [0.01, 0.1, 0.5, 1.0, 2.0]
    assert grid["folds"] == 5


def test_resolve_config_empty_grid_object_is_the_default_grid():
    base = {"cube": "a", "ground_truth": "b"}

    def grid(value):
        return resolve_config({**base, "classifier": {"kind": "svm", "grid": value}}, {})

    assert grid({})["classifier"]["grid"] == grid(True)["classifier"]["grid"]


@pytest.mark.parametrize(
    "mutation",
    [
        {"cube": None},
        {"train_fraction": 1.5},
        {"train_fraction": "lots"},
        {"reduction": {"method": "lda"}},
        {"reduction": {"method": "pca"}},  # missing components
        {"reduction": {"method": "pca", "components": 0}},
        {"reduction": "pca"},
        {"classifier": {"kind": "forest"}},
        {"classifier": {"kind": "svm", "params": {"cc": 1.0}}},
        {"classifier": {"kind": "svm", "params": {"c": -5.0}}},
        {"classifier": {"kind": "gbdt", "params": {"num_trees": 0}}},
        {"classifier": {"kind": "svm", "grid": "yes"}},
        {"classifier": {"kind": "svm", "grid": {"c": ["x"]}}},
        {"classifier": {"kind": "svm", "params": ["c"]}},
        {"classifier": {"kind": "svm", "grid": {"c": 5}}},
        {"classifier": {"kind": "svm", "params": 3}},
        {"classifier": {"kind": "svm", "grid": {"c": []}}},
        {"classifier": {"kind": "svm", "grid": {"gamma": [-1]}}},
        {"classifier": {"kind": "svm", "grid": {"folds": 1}}},
        {"reduction": {"method": "rpca", "components": 4, "oversampling": -3}},
        {"reduction": {"method": "rpca", "components": 4, "power_iterations": -1}},
        {"seed": 2.7},
        {"seed": True},
        {"reduction": {"method": "pca", "components": 2.5}},
        {"classifier": {"kind": "svm", "params": {"max_iter": 1000.9}}},
        # Keys that would be dropped, at every level.
        {"train_fracton": 0.5},
        {"reduction": {"method": "none", "components": 3}},
        {"reduction": {"method": "pca", "components": 3, "oversampling": 4}},
        {"reduction": {"method": "pca", "components": 3, "power_iterations": 1}},
        {"classifier": {"kind": "gbdt", "grid": True}},
        {"classifier": {"kind": "svm", "weights": [1, 2]}},
        {"classifier": {"kind": "svm", "grid": {"c": [1.0], "fold": 3}}},
        # Paths are strings, not values passed through str().
        {"cube": 5},
        {"ground_truth": ["b.hsih"]},
        {"output": {"a": 1}},
        {"output": ""},
        # A grid is null, false, true or an object; no other value.
        {"classifier": {"kind": "svm", "grid": []}},
        {"classifier": {"kind": "svm", "grid": 0}},
        {"classifier": {"kind": "svm", "grid": ""}},
        # The run seed is the only seed.
        {"classifier": {"kind": "gbdt", "params": {"seed": 1}}},
    ],
)
def test_resolve_config_rejects(mutation):
    base = {"cube": "a.hsih", "ground_truth": "b.hsih"}
    with pytest.raises(UsageError):
        resolve_config({**base, **mutation}, {})


def test_resolve_config_accepts_integral_numbers():
    config = resolve_config(
        {
            "cube": "a",
            "ground_truth": "b",
            "seed": 10.0,
            "reduction": {"method": "pca", "components": 10.0},
            "classifier": {"kind": "gbdt", "params": {"num_trees": 10, "learning_rate": 1}},
        },
        {},
    )
    assert config["seed"] == 10 and isinstance(config["seed"], int)
    assert config["reduction"] == {"method": "pca", "components": 10}
    assert config["classifier"]["params"]["num_trees"] == 10
    assert config["classifier"]["params"]["learning_rate"] == 1.0
    assert isinstance(config["classifier"]["params"]["learning_rate"], float)


def test_method_label():
    base = resolve_config({"cube": "a", "ground_truth": "b"}, {})
    assert method_label(base) == "svm/original"
    rpca = resolve_config(
        {"cube": "a", "ground_truth": "b", "reduction": {"method": "rpca", "components": 20}},
        {},
    )
    assert method_label(rpca) == "svm/rpca-20"
    gbdt = resolve_config(
        {
            "cube": "a",
            "ground_truth": "b",
            "reduction": {"method": "pca", "components": 3},
            "classifier": {"kind": "gbdt"},
        },
        {},
    )
    assert method_label(gbdt) == "gbdt/pca-3"


# ----------------------------------------------------------------------- run


def test_run_writes_artifacts_and_summary(scene, tmp_path, capsys):
    cube_path, gt_path = scene
    out = tmp_path / "out"
    code = main(
        ["run", "--cube", cube_path, "--gt", gt_path, "--output", str(out), "--seed", "1"]
    )
    assert code == 0
    for name in ARTIFACTS:
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "hsikit/report/1"
    assert report["method"] == "svm/original"
    assert report["evaluation"]["overall_accuracy"] >= 0.9
    printed = capsys.readouterr().out
    assert "overall accuracy" in printed
    assert str(out) in printed


def test_run_times_every_stage(scene, tmp_path):
    out = tmp_path / "out"
    make_run(scene, out, extra=["--reduction", "pca", "--components", "3"])
    timings = json.loads((out / "timings.json").read_text())
    # The split is part of the load stage: the labels are split before the cube is read.
    stages = ("load", "reduce", "train", "predict", "evaluate", "write")
    assert set(timings) == {"schema", "total_ms"} | {f"{stage}_ms" for stage in stages}
    assert all(timings[f"{stage}_ms"] >= 0.0 for stage in stages)
    # total_ms is a wall clock, not a sum; the 0.01 allows for the rounding
    # of each value to three decimals.
    assert timings["total_ms"] >= sum(timings[f"{stage}_ms"] for stage in stages) - 0.01


def test_run_deterministic_artifacts(scene, tmp_path):
    # The identical invocation repeated must reproduce every artifact
    # byte for byte; timings.json is the documented exception.
    cube_path, gt_path = scene
    out = tmp_path / "a"
    args = ["run", "--cube", cube_path, "--gt", gt_path, "--seed", "2", "--output", str(out)]
    assert main(args) == 0
    first = run_dir_bytes(out)
    assert main(args) == 0
    second = run_dir_bytes(out)
    assert first == second


@pytest.mark.parametrize(
    "settings",
    [
        {},
        {
            "reduction": {"method": "pca", "components": 3},
            "classifier": {"kind": "gbdt", "params": {"num_trees": 4, "min_samples_leaf": 2}},
        },
        {
            "reduction": {"method": "rpca", "components": 3, "oversampling": 2},
            "classifier": {"kind": "svm", "grid": {"c": [1, 10], "gamma": [0.5], "folds": 2}},
        },
    ],
    ids=["svm", "gbdt-pca", "svm-rpca-grid"],
)
def test_run_config_snapshot_reproduces(scene, tmp_path, settings):
    # Feeding the emitted config.json back reproduces the run exactly.
    cube_path, gt_path = scene
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    config_a = tmp_path / "first.json"
    config_a.write_text(json.dumps({"cube": cube_path, "ground_truth": gt_path, **settings}))
    assert main(["run", "--config", str(config_a), "--output", str(out_a)]) == 0
    snapshot = out_a / "config.json"
    rewritten = json.loads(snapshot.read_text())
    rewritten["output"] = str(out_b)
    config_b = tmp_path / "replay.json"
    config_b.write_text(json.dumps(rewritten))
    assert main(["run", "--config", str(config_b)]) == 0
    blobs_a = run_dir_bytes(out_a)
    blobs_b = run_dir_bytes(out_b)
    del blobs_a["config.json"], blobs_b["config.json"]  # paths differ
    assert blobs_a == blobs_b


def test_run_seed_reaches_gbdt_train(scene, tmp_path, monkeypatch):
    real = hsikit.cli.gbdt_train
    seeds = []

    def recording(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        seeds.append(bound.arguments["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr("hsikit.cli.gbdt_train", recording)
    make_run(scene, tmp_path / "out", ["--seed", "5", "--classifier", "gbdt", "--gbdt-trees", "2"])
    assert seeds == [5]


def test_run_flags_override_config_file(scene, tmp_path):
    cube_path, gt_path = scene
    config_file = tmp_path / "c.json"
    config_file.write_text(
        json.dumps({"cube": cube_path, "ground_truth": gt_path, "seed": 0})
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--output", str(out), "--seed", "7"]) == 0
    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["seed"] == 7


def test_run_with_pca_and_gbdt(scene, tmp_path):
    cube_path, gt_path = scene
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--cube", cube_path,
            "--gt", gt_path,
            "--output", str(out),
            "--reduction", "pca",
            "--components", "3",
            "--classifier", "gbdt",
            "--gbdt-trees", "8",
            "--gbdt-min-samples-leaf", "2",
            "--gbdt-bins", "16",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "gbdt/pca-3"
    model = json.loads((out / "model.json").read_text())
    assert model["reduction"]["schema"] == "hsikit/pca-model/1"
    assert model["classifier"]["model"]["schema"] == "hsikit/gbdt-model/1"
    assert model["reduction"]["method"] == "exact"


def test_run_with_rpca_records_sketch(scene, tmp_path):
    cube_path, gt_path = scene
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--cube", cube_path,
            "--gt", gt_path,
            "--output", str(out),
            "--reduction", "rpca",
            "--components", "2",
            "--oversampling", "4",
        ]
    )
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert model["reduction"]["method"] == "randomized"
    assert model["reduction"]["method_params"]["oversampling"] == 4


def test_run_rpca_sketch_wider_than_the_bands(scene, tmp_path, capsys):
    # 8 bands cannot hold a sketch of 5 components + 10 oversampling.
    cube_path, gt_path = scene
    out = tmp_path / "out"
    argv = ["run", "--cube", cube_path, "--gt", gt_path, "--output", str(out)]
    assert main(argv + ["--reduction", "rpca", "--components", "5"]) == 2
    err = capsys.readouterr().err
    assert re.search(
        r"stage 'reduce' failed: 5 components \+ 10 oversampling = 15 exceeds "
        r"min\(pixels, bands\) = min\(\d+, 8\) = 8\n$",
        err,
    ), err
    assert not out.exists()


def test_run_determinism_across_blas_threads(tmp_path):
    # The determinism contract: with one BLAS thread count every
    # deterministic artifact repeats byte for byte; across 1 and 2
    # threads the fitted floats in model.json may differ in their last
    # digits, but config, report, predictions and map must not.
    cube, gt = gaussian_scene(40, 40, 60, 5, seed=11)
    save_cube(cube, tmp_path / "scene.hsih")
    save_ground_truth(gt, tmp_path / "scene_gt.hsih")
    src = str(Path(hsikit.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for rep in range(2):
            # Same relative paths from separate directories, so the
            # config snapshots can be compared byte for byte too.
            cwd = tmp_path / f"threads{threads}_{rep}"
            cwd.mkdir()
            subprocess.run(
                [
                    sys.executable, "-m", "hsikit", "run",
                    "--cube", "../scene.hsih",
                    "--gt", "../scene_gt.hsih",
                    "--output", "run",
                    "--reduction", "rpca",
                    "--components", "10",
                    "--seed", "3",
                ],
                cwd=cwd, env=env, check=True, capture_output=True,
            )
            runs[threads, rep] = run_dir_bytes(cwd / "run")
    assert runs["1", 0] == runs["1", 1]
    assert runs["2", 0] == runs["2", 1]
    for name in ("config.json", "report.json", "predictions.json", "map.ppm"):
        assert runs["1", 0][name] == runs["2", 0][name], name


@pytest.fixture
def five_class_scene(tmp_path):
    cube, gt = gaussian_scene(16, 16, 8, 5, seed=7)
    cube_path = save_cube(cube, tmp_path / "scene5.hsih")
    gt_path = save_ground_truth(gt, tmp_path / "scene5_gt.hsih")
    return str(cube_path), str(gt_path)


@pytest.mark.parametrize(
    "settings",
    [
        {
            "reduction": {"method": "pca", "components": 4},
            "classifier": {"kind": "svm", "grid": {"c": [1, 100], "gamma": [0.5, 2], "folds": 2}},
        },
        {"reduction": {"method": "rpca", "components": 4, "oversampling": 2}},
        {
            "reduction": {"method": "pca", "components": 4},
            "classifier": {"kind": "gbdt", "params": {"num_trees": 5}},
        },
    ],
    ids=["svm-pca-grid", "svm-rpca", "gbdt"],
)
def test_run_artifacts_identical_for_any_worker_count(
    five_class_scene, tmp_path, monkeypatch, force_cpus, settings
):
    # 0 to 3 pool workers (1 to 4 CPUs); the output path is relative, so
    # config.json can be compared too.
    cube_path, gt_path = five_class_scene
    config = tmp_path / "config.json"
    paths = {"cube": cube_path, "ground_truth": gt_path, "output": "run"}
    config.write_text(json.dumps({**paths, "seed": 1, **settings}))
    runs = []
    for cpus in (1, 2, 3, 4):
        force_cpus(cpus)
        (tmp_path / f"cpus{cpus}").mkdir()
        monkeypatch.chdir(tmp_path / f"cpus{cpus}")
        assert main(["run", "--config", str(config)]) == 0
        runs.append(run_dir_bytes(Path("run")))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert runs[3] == runs[0]


def dead_worker_run(scene, tmp_path, monkeypatch, force_cpus, capsys, module, name, flags):
    """A run whose pool workers exit inside ``module.name`` exits 2 with
    one stderr line and writes nothing; the next run makes a new pool."""
    cube_path, gt_path = scene
    force_cpus(3)  # two pool workers, forked after the patch below
    parent = os.getpid()
    real = getattr(module, name)

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, dying)
    out = tmp_path / "out"
    argv = ["run", "--cube", cube_path, "--gt", gt_path, "--output", str(out), *flags]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "stage 'train' failed: a worker process died" in err
    assert not out.exists()
    assert not list(tmp_path.rglob("*.tmp"))
    # The broken pool is gone; the next run makes a new one.
    assert pool._current is None
    monkeypatch.setattr(module, name, real)
    assert main(argv) == 0


def test_run_dead_worker_exits_2_and_writes_nothing(
    five_class_scene, tmp_path, monkeypatch, force_cpus, capsys
):
    dead_worker_run(
        five_class_scene, tmp_path, monkeypatch, force_cpus, capsys, svm, "_smo_solve", []
    )


def test_run_dead_grid_worker_exits_2_and_writes_nothing(
    five_class_scene, tmp_path, monkeypatch, force_cpus, capsys
):
    # The workers die in the first grid fit they train.
    dead_worker_run(
        five_class_scene, tmp_path, monkeypatch, force_cpus, capsys, svm, "svm_train",
        ["--svm-grid"],
    )


def test_run_dead_gbdt_worker_exits_2_and_writes_nothing(
    five_class_scene, tmp_path, monkeypatch, force_cpus, capsys
):
    dead_worker_run(
        five_class_scene, tmp_path, monkeypatch, force_cpus, capsys,
        gbdt, "_grow_tree", ["--classifier", "gbdt", "--gbdt-trees", "3"],
    )


def test_import_leaves_out_the_process_pool_modules():
    # The pool's modules are imported when the first pool is made; a run
    # that never makes one does not pay for them.
    code = (
        "import sys, hsikit, hsikit.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    src = str(Path(hsikit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert done.stdout.strip() == "[]"


def test_run_failed_stage_leaves_no_artifacts(scene, tmp_path, capsys):
    _, gt_path = scene
    out = tmp_path / "out"
    code = main(
        ["run", "--cube", str(tmp_path / "missing.hsih"), "--gt", gt_path, "--output", str(out)]
    )
    assert code == 2
    assert "stage 'load' failed" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_unlabeled_pixel_is_a_data_error(tmp_path, capsys):
    # The run reads only the labeled pixels' values, but checks every band whole.
    cube, gt = gaussian_scene(12, 12, 8, 3, seed=5)
    y, x = np.argwhere(gt.labels == 0)[0]
    gt_path = save_ground_truth(gt, tmp_path / "scene_gt.hsih")
    for bad in (np.nan, np.inf):
        values = cube.values.copy()
        values[5, y, x] = bad
        cube_path = tmp_path / "scene.hsih"
        save_cube(cube, cube_path)
        cube_path.with_suffix(".hsir").write_bytes(values.astype("<f4").tobytes())
        out = tmp_path / "out"
        argv = ["--cube", str(cube_path), "--gt", str(gt_path), "--output", str(out)]
        assert main(["run", *argv]) == 2
        assert f"{cube_path}: cube contains non-finite values" in capsys.readouterr().err
        assert not out.exists()
        assert main(["inspect", str(cube_path)]) == 2
        assert f"{cube_path}: cube contains non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fault, message",
    [
        ("truncated", "payload is 4606 bytes, expected 4608"),
        ("u16", "cube requires dtype f32, got u16"),
        ("smaller", "cube is 12x11 but ground truth is 12x12"),
    ],
)
def test_run_names_the_faulty_cube(scene, tmp_path, capsys, fault, message):
    _, gt_path = scene
    cube, _ = gaussian_scene(12, 12, 8, 3, seed=5)
    cube_path = tmp_path / "bad.hsih"
    if fault == "u16":
        save_ground_truth(load_ground_truth(gt_path), cube_path)
    elif fault == "smaller":
        save_cube(HsiCube(12, 11, 8, cube.values[:, :, :11]), cube_path)
    else:
        save_cube(cube, cube_path)
        payload = cube_path.with_suffix(".hsir")
        payload.write_bytes(payload.read_bytes()[:-2])
    out = tmp_path / "out"
    assert main(["run", "--cube", str(cube_path), "--gt", gt_path, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    named = cube_path.with_suffix(".hsir") if fault == "truncated" else cube_path
    assert f"stage 'load' failed: {named}: {message}" in err
    assert not out.exists()


def test_run_failed_write_keeps_previous_artifacts(scene, tmp_path, monkeypatch, capsys):
    cube_path, gt_path = scene
    out = tmp_path / "out"
    argv = ["run", "--cube", cube_path, "--gt", gt_path, "--output", str(out)]
    assert main(argv + ["--seed", "1"]) == 0
    before = run_dir_bytes(out, skip_timings=False)

    def failing_write_ppm(image, path):
        Path(path).write_bytes(b"P6\n")  # a partial file, then the disk fills
        raise OSError("no space left on device")

    monkeypatch.setattr("hsikit.cli.write_ppm", failing_write_ppm)
    assert main(argv + ["--seed", "2"]) == 2
    assert "no space left on device" in capsys.readouterr().err
    assert run_dir_bytes(out, skip_timings=False) == before
    assert sorted(path.name for path in out.iterdir()) == sorted(ARTIFACTS)  # no *.tmp


def test_run_directory_in_an_artifact_place_keeps_previous_artifacts(scene, tmp_path, capsys):
    cube_path, gt_path = scene
    out = tmp_path / "out"
    argv = ["run", "--cube", cube_path, "--gt", gt_path, "--output", str(out)]
    assert main(argv + ["--seed", "1"]) == 0
    before = run_dir_bytes(out, skip_timings=False)
    del before["map.ppm"]
    (out / "map.ppm").unlink()
    (out / "map.ppm").mkdir()
    assert main(argv + ["--seed", "2"]) == 2
    assert "map.ppm is a directory" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in before} == before
    assert sorted(path.name for path in out.iterdir()) == sorted(ARTIFACTS)  # no *.tmp


def test_run_bad_config_is_usage_error_before_loading(tmp_path, capsys):
    config_file = tmp_path / "c.json"
    config_file.write_text(
        json.dumps(
            {
                "cube": str(tmp_path / "missing.hsih"),
                "ground_truth": str(tmp_path / "missing_gt.hsih"),
                "classifier": {"kind": "svm", "grid": {"c": 5}},
            }
        )
    )
    assert main(["run", "--config", str(config_file), "--output", str(tmp_path / "o")]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "name, content",
    [
        ("truncated.json", b'{"seed": 1,'),
        ("latin1.json", '{"output": "caf\xe9"}'.encode("latin-1")),
        ("missing.json", None),
        ("list.json", b'["cube", "gt"]'),
    ],
    ids=["not-json", "not-utf8", "missing", "not-an-object"],
)
def test_run_unreadable_config_is_usage_error(tmp_path, capsys, name, content):
    config_file = tmp_path / name
    if content is not None:
        config_file.write_bytes(content)
    assert main(["run", "--config", str(config_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert str(config_file) in err


def test_run_empty_output_writes_nothing(scene, tmp_path, monkeypatch, capsys):
    cube_path, gt_path = scene
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", "--cube", cube_path, "--gt", gt_path, "--output", ""]) == 1
    assert "config field 'output' must be a non-empty path" in capsys.readouterr().err
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize(
    "flags, model_cls",
    [
        (["--reduction", "rpca", "--components", "2", "--oversampling", "4"], SvmModel),
        (["--reduction", "pca", "--components", "3", "--classifier", "gbdt",
          "--gbdt-trees", "4", "--gbdt-min-samples-leaf", "2"], GbdtModel),
    ],
)
def test_run_artifacts_decode_and_reencode_identically(scene, tmp_path, flags, model_cls):
    out = tmp_path / "out"
    make_run(scene, out, extra=flags)
    model_bytes = (out / "model.json").read_bytes()
    model_doc = json.loads(model_bytes)
    model_doc["reduction"] = PcaModel.from_dict(model_doc["reduction"]).to_dict()
    classifier = model_doc["classifier"]
    classifier["model"] = model_cls.from_dict(classifier["model"]).to_dict()
    assert _canonical_json(model_doc) == model_bytes
    report_bytes = (out / "report.json").read_bytes()
    report_doc = json.loads(report_bytes)
    report_doc["evaluation"] = EvalReport.from_dict(report_doc["evaluation"]).to_dict()
    assert _canonical_json(report_doc) == report_bytes


def test_run_flag_conflicts(scene, tmp_path, capsys):
    cube_path, gt_path = scene
    base = ["run", "--cube", cube_path, "--gt", gt_path, "--output", str(tmp_path / "o")]
    assert main(base + ["--classifier", "gbdt", "--svm-c", "10"]) == 1
    assert main(base + ["--classifier", "svm", "--gbdt-trees", "5"]) == 1
    assert main(base + ["--svm-c", "10", "--gbdt-trees", "5"]) == 1
    assert main(base + ["--reduction", "pca"]) == 1  # no --components
    assert main(base + ["--classifier", "gbdt", "--svm-grid"]) == 1
    # Reduction flags that would be dropped are rejected instead, by the
    # config check, which names the config field.
    capsys.readouterr()
    assert main(base + ["--components", "5"]) == 1
    assert capsys.readouterr().err == (
        "usage error: config field 'reduction' must be an object with a 'method'\n"
    )
    assert main(base + ["--oversampling", "4"]) == 1
    assert main(base + ["--power-iterations", "1"]) == 1
    assert main(base + ["--reduction", "pca", "--components", "3", "--oversampling", "4"]) == 1
    assert main(base + ["--reduction", "pca", "--components", "3", "--power-iterations", "1"]) == 1
    assert main(base + ["--reduction", "none", "--components", "3"]) == 1
    assert not (tmp_path / "o").exists()



@pytest.mark.parametrize(
    "flags, fields",
    [
        (
            ["--cube", "c.hsih", "--gt", "g.hsih", "--output", "o", "--train-fraction", "0.5",
             "--seed", "4", "--reduction", "rpca", "--components", "3", "--oversampling", "5",
             "--power-iterations", "1", "--classifier", "svm", "--svm-c", "7", "--svm-gamma",
             "0.25", "--svm-grid"],
            {"cube": "c.hsih", "ground_truth": "g.hsih", "output": "o", "train_fraction": 0.5,
             "seed": 4, "reduction.method": "rpca", "reduction.components": 3,
             "reduction.oversampling": 5, "reduction.power_iterations": 1,
             "classifier.kind": "svm", "classifier.params.c": 7.0,
             "classifier.params.gamma": 0.25, "classifier.grid.folds": 5},
        ),
        (  # no --classifier: a GBDT parameter selects gbdt
            ["--cube", "c.hsih", "--gt", "g.hsih", "--gbdt-trees", "3",
             "--gbdt-learning-rate", "0.2", "--gbdt-max-leaves", "7",
             "--gbdt-min-samples-leaf", "2", "--gbdt-bins", "8", "--goss-top-rate", "0.3",
             "--goss-other-rate", "0.05"],
            {"classifier.kind": "gbdt", "classifier.params.num_trees": 3,
             "classifier.params.learning_rate": 0.2, "classifier.params.max_leaves": 7,
             "classifier.params.min_samples_leaf": 2, "classifier.params.num_bins": 8,
             "classifier.params.goss_top_rate": 0.3, "classifier.params.goss_other_rate": 0.05},
        ),
    ],
)
def test_each_run_flag_sets_its_config_field(monkeypatch, flags, fields):
    resolved = []

    def stop(config):
        resolved.append(config)
        raise UsageError("stopped before loading")

    monkeypatch.setattr("hsikit.cli.run_pipeline", stop)
    assert main(["run"] + flags) == 1
    for field, expected in fields.items():
        value = resolved[0]
        for key in field.split("."):
            value = value[key]
        assert value == expected, field


# ------------------------------------------------------------------- compare


def make_run(scene, out, extra=()):
    cube_path, gt_path = scene
    args = ["run", "--cube", cube_path, "--gt", gt_path, "--output", str(out)]
    assert main(args + list(extra)) == 0


def test_compare_run_against_itself(scene, tmp_path, capsys):
    out = tmp_path / "a"
    make_run(scene, out)
    capsys.readouterr()
    code = main(["compare", str(out), str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "b=0 c=0" in printed
    assert "not significant" in printed


def test_compare_two_methods_json(scene, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    make_run(scene, out_a)
    make_run(
        scene,
        out_b,
        extra=["--classifier", "gbdt", "--gbdt-trees", "8", "--gbdt-min-samples-leaf", "2"],
    )
    capsys.readouterr()
    code = main(["compare", str(out_a), str(out_b), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a"]["method"] == "svm/original"
    assert doc["b"]["method"] == "gbdt/original"
    assert set(doc["mcnemar"]) == {"b", "c", "statistic", "p_value", "significant_at_05", "method"}
    assert 0.0 <= doc["mcnemar"]["p_value"] <= 1.0


def test_compare_mismatched_seeds_rejected(scene, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    make_run(scene, out_a, extra=["--seed", "1"])
    make_run(scene, out_b, extra=["--seed", "2"])
    capsys.readouterr()
    code = main(["compare", str(out_a), str(out_b)])
    assert code == 2
    assert "not comparable" in capsys.readouterr().err


def test_compare_different_test_splits_rejected(scene, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    make_run(scene, out_a)
    make_run(scene, out_b)
    doc = json.loads((out_b / "predictions.json").read_text())
    doc["pixel_indices"].reverse()
    (out_b / "predictions.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["compare", str(out_a), str(out_b)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "runs are not comparable: test splits differ" in captured.err


def test_compare_missing_run_dir(tmp_path, capsys):
    code = main(["compare", str(tmp_path / "x"), str(tmp_path / "y")])
    assert code == 2


@pytest.mark.parametrize(
    "name, mangle",
    [
        ("predictions.json", lambda doc: doc.pop("dataset")),
        ("predictions.json", lambda doc: doc.pop("predicted")),
        ("report.json", lambda doc: doc.pop("evaluation")),
        ("report.json", lambda doc: doc.update(evaluation=[0.9])),
        ("report.json", lambda doc: doc["evaluation"].update(overall_accuracy=None)),
        ("predictions.json", lambda doc: doc.update(method=["svm"])),
        ("predictions.json", lambda doc: doc["predicted"].__setitem__(0, 1.5)),
        ("predictions.json", lambda doc: doc["predicted"].__setitem__(0, "1")),
        ("predictions.json", lambda doc: doc["predicted"].pop()),
        ("predictions.json", lambda doc: doc["pixel_indices"].pop()),
    ],
)
def test_compare_foreign_run_is_a_data_error(scene, tmp_path, capsys, name, mangle):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    make_run(scene, out_a)
    make_run(scene, out_b)
    doc = json.loads((out_b / name).read_text())
    mangle(doc)
    (out_b / name).write_text(json.dumps(doc))
    for json_flag in ([], ["--json"]):
        capsys.readouterr()
        assert main(["compare", *json_flag, str(out_a), str(out_b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error:")
        assert str(out_b / name) in captured.err


def test_compare_non_utf8_run_file_is_a_data_error(scene, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    make_run(scene, out_a)
    make_run(scene, out_b)
    (out_b / "predictions.json").write_bytes(b'{"dataset": "\xff"}')
    capsys.readouterr()
    assert main(["compare", str(out_a), str(out_b)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert str(out_b / "predictions.json") in err


# ----------------------------------------------------------- convert/inspect


def test_convert_round_trip_all_orders(scene, tmp_path, capsys):
    cube_path, _ = scene
    cube = load_cube(cube_path)
    b, h, w = cube.values.shape
    bsq = cube.values
    bil = cube.values.transpose(1, 0, 2)  # height, bands, width
    bip = cube.values.transpose(1, 2, 0)  # height, width, bands
    payloads = {"bsq": bsq, "bil": bil, "bip": bip}
    outputs = {}
    for order, array in payloads.items():
        raw = tmp_path / f"raw_{order}.bin"
        raw.write_bytes(np.ascontiguousarray(array, dtype="<f4").tobytes())
        out = tmp_path / f"cube_{order}"
        code = main(
            ["convert", "--input", str(raw), "--height", str(h), "--width", str(w),
             "--bands", str(b), "--dtype", "f32", "--order", order, "--output", str(out)]
        )
        assert code == 0
        outputs[order] = out.with_suffix(".hsih")
    reference = outputs["bsq"].with_suffix(".hsir").read_bytes()
    for order in ("bil", "bip"):
        assert outputs[order].with_suffix(".hsir").read_bytes() == reference
    assert np.array_equal(load_cube(outputs["bip"]).values, cube.values)


def test_convert_ground_truth_with_names(tmp_path, capsys):
    labels = np.array([[0, 1], [2, 1]], dtype="<u2")
    raw = tmp_path / "gt.bin"
    raw.write_bytes(labels.tobytes())
    out = tmp_path / "gt"
    code = main(
        ["convert", "--input", str(raw), "--height", "2", "--width", "2", "--bands", "1",
         "--dtype", "u16", "--class-names", "water, trees", "--output", str(out)]
    )
    assert code == 0
    gt = load_ground_truth(out.with_suffix(".hsih"))
    assert np.array_equal(gt.labels, labels.astype(np.uint16))
    assert gt.class_names == ["water", "trees"]


def test_convert_ground_truth_default_names(tmp_path, capsys):
    raw = tmp_path / "gt.bin"
    raw.write_bytes(np.array([[0, 3], [1, 0]], dtype="<u2").tobytes())
    out = tmp_path / "gt"
    code = main(
        ["convert", "--input", str(raw), "--height", "2", "--width", "2", "--bands", "1",
         "--dtype", "u16", "--output", str(out)]
    )
    assert code == 0
    assert load_ground_truth(out.with_suffix(".hsih")).class_names == [
        "class_1", "class_2", "class_3"
    ]


@pytest.mark.parametrize("dims", [("0", "1", "1"), ("1", "-1", "1"), ("1", "1", "0")])
def test_convert_non_positive_dimensions_rejected(tmp_path, capsys, dims):
    raw = tmp_path / "one.bin"
    raw.write_bytes(np.array([2.5], dtype="<f4").tobytes())
    height, width, bands = dims
    code = main(
        ["convert", "--input", str(raw), "--height", height, "--width", width,
         "--bands", bands, "--dtype", "f32", "--output", str(tmp_path / "x")]
    )
    assert code == 1
    assert "--height, --width, --bands must be positive" in capsys.readouterr().err
    assert not (tmp_path / "x.hsih").exists()


def test_convert_single_pixel_cube(tmp_path):
    raw = tmp_path / "one.bin"
    raw.write_bytes(np.array([2.5], dtype="<f4").tobytes())
    out = tmp_path / "one"
    code = main(
        ["convert", "--input", str(raw), "--height", "1", "--width", "1", "--bands", "1",
         "--dtype", "f32", "--output", str(out)]
    )
    assert code == 0
    cube = load_cube(out.with_suffix(".hsih"))
    assert cube.values.shape == (1, 1, 1)
    assert cube.values[0, 0, 0] == np.float32(2.5)


def test_convert_size_mismatch(tmp_path, capsys):
    raw = tmp_path / "short.bin"
    raw.write_bytes(b"\x00" * 8)
    code = main(
        ["convert", "--input", str(raw), "--height", "2", "--width", "2", "--bands", "2",
         "--dtype", "f32", "--output", str(tmp_path / "x")]
    )
    assert code == 2
    assert "expected" in capsys.readouterr().err


def big_raw_cube(tmp_path):
    """A 40 x 50 x 500 f32 bsq dump, a 4 MB payload, and its convert flags."""
    raw = tmp_path / "big.bin"
    np.arange(40 * 50 * 500, dtype="<f4").tofile(raw)
    return raw, ["--height", "40", "--width", "50", "--bands", "500", "--dtype", "f32"]


def peak_of_main(argv):
    """main's exit code and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convert_holds_the_payload_once(tmp_path, capsys):
    raw, dims = big_raw_cube(tmp_path)
    payload_bytes = raw.stat().st_size
    out = tmp_path / "big"
    code, peak = peak_of_main(
        ["convert", "--input", str(raw), *dims, "--order", "bsq", "--output", str(out)]
    )
    assert code == 0
    assert out.with_suffix(".hsir").read_bytes() == raw.read_bytes()
    assert peak < 1.25 * payload_bytes


def test_convert_bip_holds_the_payload_once(tmp_path, capsys):
    raw, dims = big_raw_cube(tmp_path)
    out = tmp_path / "big"
    code, peak = peak_of_main(
        ["convert", "--input", str(raw), *dims, "--order", "bip", "--output", str(out)]
    )
    assert code == 0
    expected = np.fromfile(raw, dtype="<f4").reshape(40, 50, 500).transpose(2, 0, 1)
    assert out.with_suffix(".hsir").read_bytes() == expected.tobytes()
    assert peak < 1.25 * raw.stat().st_size


def test_inspect_holds_the_payload_once(tmp_path, capsys):
    raw, dims = big_raw_cube(tmp_path)
    assert main(["convert", "--input", str(raw), *dims, "--output", str(tmp_path / "big")]) == 0
    capsys.readouterr()
    code, peak = peak_of_main(["inspect", str(tmp_path / "big.hsih")])
    assert code == 0
    # inspect reads the 4 MB payload band by band: beside the parser's own
    # allocations it holds a few 16 KB float64 bands, never the payload.
    assert peak < 2**16 + 5 * (40 * 50 * 8)
    values = np.arange(40 * 50 * 500, dtype=np.float64)
    assert f"mean {values.mean():.4f} std {values.std():.4f}" in capsys.readouterr().out


def test_convert_checks_the_size_before_reading(tmp_path, capsys):
    raw, dims = big_raw_cube(tmp_path)
    dims[dims.index("--bands") + 1] = "499"
    code, peak = peak_of_main(
        ["convert", "--input", str(raw), *dims, "--output", str(tmp_path / "x")]
    )
    assert peak < 2**20
    assert code == 2
    assert "payload is 4000000 bytes, expected 3992000 (40x50x499 f32)" in capsys.readouterr().err
    assert not (tmp_path / "x.hsih").exists()


def test_convert_u16_multiband_rejected(tmp_path):
    raw = tmp_path / "gt.bin"
    raw.write_bytes(b"\x00" * 8)
    code = main(
        ["convert", "--input", str(raw), "--height", "2", "--width", "1", "--bands", "2",
         "--dtype", "u16", "--output", str(tmp_path / "x")]
    )
    assert code == 1


def test_convert_class_names_need_ground_truth(tmp_path, capsys):
    raw = tmp_path / "one.bin"
    raw.write_bytes(np.array([2.5], dtype="<f4").tobytes())
    code = main(
        ["convert", "--input", str(raw), "--height", "1", "--width", "1", "--bands", "1",
         "--dtype", "f32", "--class-names", "water", "--output", str(tmp_path / "x")]
    )
    assert code == 1
    assert "--class-names" in capsys.readouterr().err
    assert not (tmp_path / "x.hsih").exists()


def test_convert_too_few_class_names(tmp_path):
    labels = np.array([[3]], dtype="<u2")
    raw = tmp_path / "gt.bin"
    raw.write_bytes(labels.tobytes())
    code = main(
        ["convert", "--input", str(raw), "--height", "1", "--width", "1", "--bands", "1",
         "--dtype", "u16", "--class-names", "only,two", "--output", str(tmp_path / "x")]
    )
    assert code == 1


def test_inspect_cube_and_ground_truth(scene, capsys):
    cube_path, gt_path = scene
    code = main(["inspect", cube_path, gt_path])
    assert code == 0
    printed = capsys.readouterr().out
    assert "hyperspectral cube 12 x 12 pixels, 8 bands" in printed
    assert "ground truth 12 x 12 pixels, 3 classes" in printed
    assert "class_1" in printed


def test_inspect_ground_truth_without_names(tmp_path, capsys):
    from hsikit.hsi_data import GroundTruth

    gt = GroundTruth(1, 2, np.array([[1, 2]], dtype=np.uint16))
    path = save_ground_truth(gt, tmp_path / "gt.hsih")
    code = main(["inspect", str(path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "2 classes" in printed
    assert "class_2" in printed  # fallback names


def test_inspect_missing_file(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "none.hsih")]) == 2


# ---------------------------------------------------------------- exit codes


def test_unknown_subcommand_is_usage_error(capsys):
    # Neither `bench` nor a bare `hsikit` names a subcommand.
    for argv in (["frobnicate"], ["bench", "--rows", "40", "--cols", "30", "--k", "3"], []):
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["convert", "--input", "x"]) == 1
    assert main(["run"]) == 1  # no cube/ground truth anywhere


def test_readme_names_exactly_the_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = set(re.findall(r"\bhsikit (\w+)", section))
    # In prose a subcommand opens a sentence or clause: "`run` executes".
    named |= set(re.findall(r"(?:^|[.;]\s+|,\s+and\s+)`([a-z]+)`\s+[a-z]+s\b", prose, re.M))
    (subcommands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert named == set(subcommands)


def readme_module_map():
    """(module, backticked names) of each row of README's module map."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\nModule map:\n", 1)[1].strip().split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(hsikit[.\w]*)` \|(.*)\|$", table, re.M)
    assert len(rows) == len(table.splitlines()) - 2  # every row but the head and rule
    return [
        (importlib.import_module(module_name), re.findall(r"`([^`]+)`", contents))
        for module_name, contents in rows
    ]


def test_readme_module_map_names_exist():
    for module, names in readme_module_map():
        for name in names:
            assert hasattr(module, name), f"{module.__name__} has no {name}"


def test_readme_module_map_names_are_public():
    for module, names in readme_module_map():
        for name in names:
            assert name in module.__all__, f"{name} is not in {module.__name__}.__all__"


def test_no_module_imports_a_private_name():
    for path in Path(hsikit.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    private = alias.name.startswith("_") and not alias.name.startswith("__")
                    assert not private, f"{path.name} imports {alias.name} from {node.module}"


def test_every_sampler_takes_a_seed_argument():
    # Each SplitMix64 stream is seeded by its function's own parameter
    # named seed, never by a field of a params object, so the run seed
    # reaches every draw.
    seeded = 0
    for path in Path(hsikit.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SplitMix64"
        }
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            params = [a.arg for a in func.args.args + func.args.kwonlyargs]
            for node in calls & set(ast.walk(func)):
                args = [ast.unparse(a) for a in node.args + node.keywords]
                if "seed" in params and args == ["seed"]:
                    calls.remove(node)
                    seeded += 1
        assert not calls, [f"{path.name}:{node.lineno} {ast.unparse(node)}" for node in calls]
    assert seeded >= 4


def test_package_reexports_each_module_all():
    from hsikit import classify, dimred, errors, evaluation, hsi_data, linalg, rng, synthetic
    from hsikit.classify import gbdt, svm

    modules = (rng, errors, linalg, dimred, hsi_data, svm, gbdt, evaluation, synthetic)
    expected = ["__version__", *(name for module in modules for name in module.__all__)]
    assert hsikit.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert classify.__all__ == svm.__all__ + gbdt.__all__
    for module in modules:
        for name in module.__all__:
            assert getattr(hsikit, name) is getattr(module, name)
            if module in (svm, gbdt):
                assert getattr(classify, name) is getattr(module, name)


def test_exit_code_mapping():
    assert exit_code_for(UsageError("x")) == 1
    assert exit_code_for(DataFormatError("x")) == 2
    assert exit_code_for(DegenerateDataError("x")) == 2
    assert exit_code_for(ValueError("x")) == 2
    assert exit_code_for(OSError("x")) == 2
    assert exit_code_for(MemoryError()) == 2
    assert exit_code_for(WorkerError("x")) == 2
    assert exit_code_for(ConvergenceError("x")) == 3
    assert exit_code_for(FloatingPointError("x")) == 3
    # StageError defers to its cause.
    assert exit_code_for(StageError("train", ConvergenceError("x"))) == 3
    assert exit_code_for(StageError("load", DataFormatError("x"))) == 2

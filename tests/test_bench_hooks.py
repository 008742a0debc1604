"""The benchmark's trace hooks still find the functions they wrap.

``hsibench/pipeline.py`` times each layer by replacing hsikit functions
where their callers look them up. A renamed or deleted function would
make ``--trace 1`` fail or count nothing, so this checks the hooks
against the package as it is.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

import hsikit.cli
from hsikit.classify.gbdt import GbdtModel, _goss_sample
from hsikit.hsi_data import save_cube, save_ground_truth
from hsikit.rng import SplitMix64
from hsikit.synthetic import gaussian_scene

PIPELINE = Path(__file__).resolve().parents[1] / "hsibench" / "pipeline.py"


def load_pipeline():
    spec = importlib.util.spec_from_file_location("hsibench_pipeline", PIPELINE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_callable():
    pipeline = load_pipeline()
    for module, attr, name, _ in pipeline._targets():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def traced_run(pipeline, tmp_path, **fields):
    """Resolved config and per-layer metrics of one traced run on a small scene."""
    cube, gt = gaussian_scene(12, 12, 8, 3, seed=5)
    config = hsikit.cli.resolve_config(
        {
            "cube": str(save_cube(cube, tmp_path / "scene.hsih")),
            "ground_truth": str(save_ground_truth(gt, tmp_path / "scene_gt.hsih")),
            "output": str(tmp_path / "out"),
            **fields,
        },
        {},
    )
    tracer = pipeline.Tracer()
    with pipeline.traced(tracer):
        hsikit.cli.run_pipeline(config)  # looked up here, so the wrapped one runs
    return config, pipeline.layer_metrics(tracer.spans)[1]


def test_traced_rpca_run_counts_each_qr(tmp_path):
    pipeline = load_pipeline()
    config, metrics = traced_run(
        pipeline, tmp_path, reduction={"method": "rpca", "components": 2, "oversampling": 4}
    )
    # One QR of the sketch, then two per power iteration.
    assert metrics["linalg.qr_calls"] == 1 + 2 * config["reduction"]["power_iterations"]


def test_traced_gbdt_run_counts_trees_leaves_and_rows(tmp_path):
    pipeline = load_pipeline()
    _, metrics = traced_run(
        pipeline,
        tmp_path,
        reduction={"method": "pca", "components": 3},
        classifier={"kind": "gbdt", "params": {"num_trees": 4, "min_samples_leaf": 2}},
    )
    out = tmp_path / "out"
    model_doc = json.loads((out / "model.json").read_text())
    model = GbdtModel.from_dict(model_doc["classifier"]["model"])
    report = json.loads((out / "report.json").read_text())
    trees = [tree for round_trees in model.trees for tree in round_trees]
    assert len(model.trees) == 4 and len(trees) == 4 * len(model.classes)
    assert metrics["gbdt.trees"] == len(trees)
    assert metrics["gbdt.leaves"] == sum(tree.n_leaves for tree in trees) > len(trees)
    # GOSS keeps the same number of rows every round, whatever the gradients.
    sampled, _ = _goss_sample(np.ones((report["n_train"], 1)), model.params, SplitMix64(0))
    assert 0 < len(sampled) < report["n_train"]
    assert metrics["gbdt.goss_rows"] == len(sampled) * len(model.trees)
    assert metrics["gbdt.predict_tree_evals"] == report["n_test"] * len(trees)

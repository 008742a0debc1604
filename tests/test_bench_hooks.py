"""The benchmark's trace hooks still find the functions they wrap.

``hsibench/pipeline.py`` times each layer by replacing hsikit functions
where their callers look them up. A renamed or deleted function would
make ``--trace 1`` fail or count nothing, so this checks the hooks
against the package as it is.
"""

import importlib.util
from pathlib import Path

import hsikit.cli
from hsikit.hsi_data import save_cube, save_ground_truth
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


def test_traced_rpca_run_counts_each_qr(tmp_path):
    pipeline = load_pipeline()
    cube, gt = gaussian_scene(12, 12, 8, 3, seed=5)
    config = hsikit.cli.resolve_config(
        {
            "cube": str(save_cube(cube, tmp_path / "scene.hsih")),
            "ground_truth": str(save_ground_truth(gt, tmp_path / "scene_gt.hsih")),
            "output": str(tmp_path / "out"),
            "reduction": {"method": "rpca", "components": 2, "oversampling": 4},
        },
        {},
    )
    tracer = pipeline.Tracer()
    with pipeline.traced(tracer):
        hsikit.cli.run_pipeline(config)  # looked up here, so the wrapped one runs
    _, metrics = pipeline.layer_metrics(tracer.spans)
    # One QR of the sketch, then two per power iteration.
    assert metrics["linalg.qr_calls"] == 1 + 2 * config["reduction"]["power_iterations"]

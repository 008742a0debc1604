"""Command-line driver: run, compare, convert, inspect.

A run executes load -> split -> reduce -> train -> predict -> evaluate
and writes six fixed-name artifacts into its output directory:

    config.json       the fully resolved configuration snapshot
    report.json       evaluation report plus method label and version
    predictions.json  aligned test pixel indices, truth, predictions
    model.json        reduction model and trained classifier
    map.ppm           classification map of the test pixels
    timings.json      wall clock per stage and in total, in milliseconds

Everything except timings.json is a pure function of (config, seed)
for a fixed numpy/BLAS build and BLAS thread count, so two identical
runs produce byte-identical artifacts; timings.json is the documented
canonicalization cut. The six files are written to temporary names
only after the whole pipeline has succeeded, and renamed into place only
once all six are written and no target is a directory, so neither a
failed stage nor a failed write leaves a mix of old and new artifacts.

Exit codes: 0 success, 1 usage (bad flags or config), 2 data error
(unreadable or malformed inputs, degenerate datasets, mismatched
comparisons), 3 numerical failure (factorization non-convergence,
floating-point breakdown).

Configs are JSON with the same shape as the config.json artifact.
Each `run` flag sets one config field, which its help text names, and
overrides the file's value; the flags of one section replace the file's
whole `reduction` or `classifier` object. `resolve_config` is the one
check on the merged settings: a bad value or a key it does not know, at
any level, is a usage error that names the config field.
"""

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .classify import (
    DEFAULT_C_GRID,
    DEFAULT_FOLDS,
    DEFAULT_GAMMA_GRID,
    GbdtParams,
    SvmParams,
    gbdt_predict,
    gbdt_train,
    grid_search_cv,
    svm_predict,
    svm_train,
)
from .dimred import fit_transform, transform
from .errors import ConvergenceError, DataFormatError, HsikitError
from .evaluation import evaluate, mcnemar, render_map, write_ppm
from .hsi_data import (
    DTYPES,
    INTERLEAVES,
    GroundTruth,
    HsiCube,
    cube_bands,
    default_class_names,
    load_ground_truth,
    load_split,
    parse_header,
    read_raw,
    save_cube,
    save_ground_truth,
)
from .linalg import RandomizedSvdParams
from .records import check_int, coerce

# Unused here: hsibench/pipeline.py wraps them by name until ROADMAP item 1, step 3.
from .dimred import fit_pca, fit_rpca  # noqa: F401
from .hsi_data import extract_labeled, load_cube, stratified_split  # noqa: F401

__all__ = ["main", "run_pipeline", "UsageError", "StageError"]


class UsageError(HsikitError):
    """Bad flags or config; maps to exit code 1."""


class StageError(HsikitError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# --- configuration -----------------------------------------------------

def _check_keys(raw, name: str, allowed) -> None:
    """Raise UsageError unless ``raw`` is an object whose keys are all in
    ``allowed``, so no key of a config is dropped without a word."""
    if not isinstance(raw, dict):
        raise UsageError(f"config field {name} must be an object, got {raw!r}")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise UsageError(f"unknown {name} fields {sorted(unknown)}; allowed: {sorted(allowed)}")


def _params(cls, raw, name: str, **fixed):
    """``cls`` built from a config object. Its settable keys, their
    defaults and their types are the dataclass fields not in ``fixed``."""
    types = {f.name: f.type for f in fields(cls) if f.name not in fixed}
    _check_keys(raw, name, types)
    return cls(**fixed, **{key: coerce(v, types[key], f"{name}.{key}") for key, v in raw.items()})


def _svm_grid(grid, params: SvmParams) -> dict | None:
    """The resolved grid: null or false is none, true or an object a grid
    whose missing keys take their defaults; any other value is an error."""
    if grid is None or grid is False:
        return None
    if grid is True:
        grid = {}
    _check_keys(grid, "classifier.grid", ("c", "gamma", "folds"))
    out = {"folds": coerce(grid.get("folds", DEFAULT_FOLDS), int, "classifier.grid.folds")}
    check_int(out["folds"], "classifier.grid.folds", 2)
    for key, default in (("c", DEFAULT_C_GRID), ("gamma", DEFAULT_GAMMA_GRID)):
        values = grid.get(key, default)
        if not isinstance(values, (list, tuple)) or not values:
            raise UsageError(f"classifier.grid.{key} must be a non-empty list, got {values!r}")
        out[key] = [coerce(v, float, f"classifier.grid.{key}") for v in values]
    for c, gamma in itertools.product(out["c"], out["gamma"]):
        replace(params, c=c, gamma=gamma)  # builds, so checks, each cell's settings
    return out


def resolve_config(file_config: dict, overrides: dict) -> dict:
    """Merge a config file with flag overrides and fill all defaults.

    The result is the canonical snapshot written to config.json; flags
    win over file values, file values win over defaults. Every value is
    checked here, and a key this function does not know, at any level, is
    rejected, so a config that cannot run as written raises UsageError
    before any data is read.
    """
    cfg = dict(file_config)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    for required in ("cube", "ground_truth"):
        if not cfg.get(required):
            raise UsageError(f"missing required config field '{required}'")
    try:
        out = {
            "cube": coerce(cfg["cube"], str, "cube"),
            "ground_truth": coerce(cfg["ground_truth"], str, "ground_truth"),
            "output": coerce(cfg.get("output", "hsikit_run"), str, "output"),
            "train_fraction": coerce(cfg.get("train_fraction", 0.7), float, "train_fraction"),
            "seed": coerce(cfg.get("seed", 0), int, "seed"),
        }
        if not out["output"]:  # Path("") is the working directory
            raise UsageError("config field 'output' must be a non-empty path")
        if not 0.0 < out["train_fraction"] < 1.0:
            raise UsageError(f"train_fraction must be in (0, 1), got {out['train_fraction']}")

        reduction = cfg.get("reduction", {"method": "none"})
        if not isinstance(reduction, dict) or "method" not in reduction:
            raise UsageError("config field 'reduction' must be an object with a 'method'")
        method = reduction["method"]
        if method == "none":
            out["reduction"] = {"method": "none"}
        elif method in ("pca", "rpca"):
            k = coerce(reduction.get("components"), int, "reduction.components")
            check_int(k, "reduction.components", 1)
            out["reduction"] = {"method": method, "components": k}
            if method == "rpca":
                settings = dict(reduction)
                del settings["method"], settings["components"]
                # Built, so checked; its fit to the data is checked once that is read.
                sketch = _params(RandomizedSvdParams, settings, "reduction", k=k, seed=out["seed"])
                out["reduction"]["oversampling"] = sketch.oversampling
                out["reduction"]["power_iterations"] = sketch.power_iterations
        else:
            raise UsageError(f"unknown reduction method {method!r} (expected none, pca, rpca)")
        _check_keys(reduction, "reduction", out["reduction"])  # the keys its method takes

        classifier = cfg.get("classifier", {"kind": "svm"})
        if not isinstance(classifier, dict) or "kind" not in classifier:
            raise UsageError("config field 'classifier' must be an object with a 'kind'")
        kind = classifier["kind"]
        if kind not in ("svm", "gbdt"):
            raise UsageError(f"unknown classifier kind {kind!r} (expected svm, gbdt)")
        allowed = ("kind", "params", "grid") if kind == "svm" else ("kind", "params")
        _check_keys(classifier, "classifier", allowed)
        params_cls = SvmParams if kind == "svm" else GbdtParams
        params = _params(params_cls, classifier.get("params", {}), "classifier.params")
        out["classifier"] = {"kind": kind, "params": asdict(params)}
        if kind == "svm":
            out["classifier"]["grid"] = _svm_grid(classifier.get("grid"), params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _check_keys(cfg, "top-level config", out)  # out has every top-level key
    return out


def method_label(config: dict) -> str:
    reduction = config["reduction"]
    if reduction["method"] == "none":
        suffix = "original"
    else:
        suffix = f"{reduction['method']}-{reduction['components']}"
    return f"{config['classifier']['kind']}/{suffix}"


# --- artifact IO -------------------------------------------------------


def _canonical_json(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _load_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})")


# --- the run pipeline --------------------------------------------------


def run_pipeline(config: dict) -> dict:
    """Execute a resolved config and write artifacts; returns the report.

    Raises StageError around any failing stage; artifacts are only
    written once every stage has succeeded. The cube is never held
    whole: the load stage splits the ground truth's labels, then reads
    the cube band by band into the train and test sets, so a run holds
    its labeled samples plus one band.
    """
    out_dir = Path(config["output"])
    starts = [("load", time.perf_counter())]  # (stage, start time) in run order

    def begin(stage):
        starts.append((stage, time.perf_counter()))

    try:
        gt = load_ground_truth(config["ground_truth"])
        train_set, test_set = load_split(
            config["cube"], gt, config["train_fraction"], config["seed"]
        )

        begin("reduce")
        settings = dict(config["reduction"])  # less method and components: rpca's sketch
        method = settings.pop("method")
        if method == "none":
            pca_model = None
            train_x, test_x = train_set.features, test_set.features
        else:
            k = settings.pop("components")
            if method == "pca":
                pca_model, train_x = fit_transform(train_set.features, k)
            else:
                pca_model, train_x = fit_transform(
                    train_set.features, k, "randomized", seed=config["seed"], **settings
                )
            test_x = transform(pca_model, test_set.features)

        begin("train")
        clf = config["classifier"]
        grid_record = None
        reduced_train = replace(train_set, features=train_x)
        if clf["kind"] == "svm":
            params = SvmParams(**clf["params"])
            if clf["grid"]:
                best_c, best_gamma, table = grid_search_cv(
                    reduced_train,
                    c_grid=clf["grid"]["c"],
                    gamma_grid=clf["grid"]["gamma"],
                    folds=clf["grid"]["folds"],
                    seed=config["seed"],
                    params=params,
                )
                params = replace(params, c=best_c, gamma=best_gamma)
                grid_record = {"best": {"c": best_c, "gamma": best_gamma}, "table": table}
            model = svm_train(reduced_train, params)
            predictor = svm_predict
        else:
            params = GbdtParams(**clf["params"])
            model = gbdt_train(reduced_train, params, seed=config["seed"])
            predictor = gbdt_predict

        begin("predict")
        predicted = predictor(model, test_x)

        begin("evaluate")
        report = evaluate(predicted, test_set.labels, gt.num_classes)
        image = render_map(gt, predicted, test_set.pixel_indices)
    except (HsikitError, ValueError, OSError) as exc:
        raise StageError(starts[-1][0], exc)

    begin("write")
    label = method_label(config)
    report_doc = {
        "schema": "hsikit/report/1",
        "toolkit_version": __version__,
        "method": label,
        "n_train": len(train_set),
        "n_test": len(test_set),
        "evaluation": report.to_dict(),
    }
    predictions_doc = {
        "schema": "hsikit/predictions/1",
        "dataset": {"height": gt.height, "width": gt.width, "bands": train_set.features.shape[1]},
        "seed": config["seed"],
        "train_fraction": config["train_fraction"],
        "method": label,
        "pixel_indices": test_set.pixel_indices.tolist(),
        "truth": test_set.labels.tolist(),
        "predicted": predicted.tolist(),
    }
    model_doc = {
        "schema": "hsikit/run-model/1",
        "reduction": None if pca_model is None else pca_model.to_dict(),
        "classifier": {"kind": clf["kind"], "grid": grid_record, "model": model.to_dict()},
    }

    # Every artifact is written to <name>.tmp before any is renamed into
    # place, so a failed write leaves the previous run's artifacts as they
    # were. Files are renamed one by one, not swapped in as a directory,
    # because the output directory may hold files that are not the run's.
    staged = []  # temporary paths, each listed before it is opened

    def staged_path(name):
        staged.append(out_dir / f"{name}.tmp")
        return staged[-1]

    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, doc in (
            ("config.json", config),
            ("report.json", report_doc),
            ("predictions.json", predictions_doc),
            ("model.json", model_doc),
        ):
            staged_path(name).write_bytes(_canonical_json(doc))
        write_ppm(image, staged_path("map.ppm"))
        # Each stage runs until the next begins; the last until now. total_ms
        # is the wall clock from entry, up to the writes it cannot time: its
        # own file and the renames.
        starts.append(("total", time.perf_counter()))
        timings_doc = {"schema": "hsikit/timings/1"}
        for (stage, start), (_, end) in zip(starts, starts[1:]):
            timings_doc[f"{stage}_ms"] = round((end - start) * 1000.0, 3)
        timings_doc["total_ms"] = round((starts[-1][1] - starts[0][1]) * 1000.0, 3)
        staged_path("timings.json").write_bytes(_canonical_json(timings_doc))
        # A directory in a target's place would fail its rename after the
        # ones before it had succeeded.
        for tmp in staged:
            target = tmp.with_suffix("")
            if target.is_dir():
                raise IsADirectoryError(f"{target} is a directory, not an artifact")
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp in staged:
        os.replace(tmp, tmp.with_suffix(""))
    return report_doc


# --- subcommands -------------------------------------------------------


# Each `run` flag: (flag, the config field it sets, argparse keywords).
_RUN_FLAGS = (
    ("--cube", "cube", {}),
    ("--gt", "ground_truth", {}),
    ("--output", "output", {}),
    ("--train-fraction", "train_fraction", {"type": float}),
    ("--seed", "seed", {"type": int}),
    ("--reduction", "reduction.method", {"choices": ["none", "pca", "rpca"]}),
    ("--components", "reduction.components", {"type": int}),
    ("--oversampling", "reduction.oversampling", {"type": int}),
    ("--power-iterations", "reduction.power_iterations", {"type": int}),
    ("--classifier", "classifier.kind", {"choices": ["svm", "gbdt"]}),
    ("--svm-c", "classifier.params.c", {"type": float}),
    ("--svm-gamma", "classifier.params.gamma", {"type": float}),
    ("--svm-grid", "classifier.grid", {"action": "store_const", "const": True}),
    ("--gbdt-trees", "classifier.params.num_trees", {"type": int}),
    ("--gbdt-learning-rate", "classifier.params.learning_rate", {"type": float}),
    ("--gbdt-max-leaves", "classifier.params.max_leaves", {"type": int}),
    ("--gbdt-min-samples-leaf", "classifier.params.min_samples_leaf", {"type": int}),
    ("--gbdt-bins", "classifier.params.num_bins", {"type": int}),
    ("--goss-top-rate", "classifier.params.goss_top_rate", {"type": float}),
    ("--goss-other-rate", "classifier.params.goss_other_rate", {"type": float}),
)


def _cmd_run(args) -> int:
    file_config = {}
    if args.config:
        try:
            file_config = _load_json(Path(args.config))
        except (OSError, DataFormatError) as exc:
            raise UsageError(f"config file: {exc}") from None
        if not isinstance(file_config, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
    # Each given flag is placed at its config field, so the flags of one
    # section form a whole `reduction` or `classifier` object.
    overrides = {}
    for _, field, _ in _RUN_FLAGS:
        value = getattr(args, field)
        if value is not None:
            *sections, key = field.split(".")
            node = overrides
            for section in sections:
                node = node.setdefault(section, {})
            node[key] = value
    classifier = overrides.get("classifier")
    if classifier is not None and "kind" not in classifier:
        gbdt_fields = {f.name for f in fields(GbdtParams)}
        classifier["kind"] = "gbdt" if gbdt_fields & set(classifier.get("params", {})) else "svm"
    config = resolve_config(file_config, overrides)
    report_doc = run_pipeline(config)
    ev = report_doc["evaluation"]
    print(
        f"{report_doc['method']}: trained on {report_doc['n_train']} pixels, "
        f"tested on {report_doc['n_test']}"
    )
    print(f"overall accuracy {ev['overall_accuracy']:.4f} over {ev['num_classes']} classes")
    print(f"artifacts written to {config['output']}")
    return 0


def _compared_run(run_dir) -> dict:
    """The predictions.json fields compare reads, and the report's
    overall accuracy as ``accuracy``; the method must be a string and
    the accuracy a finite number, as compare prints both, and truth,
    predicted and pixel_indices must be of one length."""
    base = Path(run_dir)
    path = base / "predictions.json"
    try:
        predictions = _load_json(path)
        run = {
            key: predictions[key]
            for key in ("dataset", "seed", "train_fraction", "pixel_indices", "truth",
                        "predicted")
        }
        run["method"] = coerce(predictions["method"], str, "method")
        for key in ("truth", "predicted"):
            run[key] = [coerce(label, int, key) for label in run[key]]
        lengths = [len(run[key]) for key in ("truth", "predicted", "pixel_indices")]
        if len(set(lengths)) > 1:
            raise ValueError(f"truth, predicted and pixel_indices lengths differ: {lengths}")
        path = base / "report.json"
        accuracy = _load_json(path)["evaluation"]["overall_accuracy"]
        run["accuracy"] = coerce(accuracy, float, "evaluation.overall_accuracy")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: missing or malformed field ({exc!r})") from None
    return run


def _cmd_compare(args) -> int:
    run_a, run_b = _compared_run(args.run_a), _compared_run(args.run_b)
    for field in ("dataset", "seed", "train_fraction"):
        if run_a[field] != run_b[field]:
            raise DataFormatError(
                f"runs are not comparable: {field} differs "
                f"({run_a[field]!r} vs {run_b[field]!r})"
            )
    if run_a["pixel_indices"] != run_b["pixel_indices"] or run_a["truth"] != run_b["truth"]:
        raise DataFormatError("runs are not comparable: test splits differ")
    result = mcnemar(run_a["predicted"], run_b["predicted"], run_a["truth"])
    row = {
        "a": {"method": run_a["method"], "accuracy": run_a["accuracy"]},
        "b": {"method": run_b["method"], "accuracy": run_b["accuracy"]},
        "mcnemar": result.to_dict(),
    }
    if args.json:
        sys.stdout.write(_canonical_json(row).decode("utf-8"))
        return 0
    print(f"{'method':<24}{'accuracy':>10}")
    print(f"{row['a']['method']:<24}{row['a']['accuracy']:>10.4f}")
    print(f"{row['b']['method']:<24}{row['b']['accuracy']:>10.4f}")
    verdict = "significant" if result.significant_at_05 else "not significant"
    print(
        f"McNemar b={result.b} c={result.c} statistic={result.statistic:.4f} "
        f"p={result.p_value:.4g} ({result.method}): {verdict} at 0.05"
    )
    return 0


def _cmd_convert(args) -> int:
    if args.height < 1 or args.width < 1 or args.bands < 1:
        raise UsageError("--height, --width, --bands must be positive")
    if args.dtype == "u16" and args.bands != 1:
        raise UsageError("--dtype u16 (ground truth) requires --bands 1")
    if args.class_names is not None and args.dtype != "u16":
        raise UsageError("--class-names is only valid with --dtype u16 (ground truth)")
    values = read_raw(args.input, args.dtype, args.height, args.width, args.bands, args.order)
    if args.dtype == "f32":
        header = save_cube(HsiCube(args.height, args.width, args.bands, values), args.output)
        print(f"wrote cube {header}")
        return 0
    labels = values[0]
    top = int(labels.max())
    if args.class_names:
        names = [n.strip() for n in args.class_names.split(",")]
        if len(names) < top:
            raise UsageError(f"labels go up to {top} but only {len(names)} class names given")
    else:
        names = default_class_names(top)
    header = save_ground_truth(GroundTruth(args.height, args.width, labels, names), args.output)
    print(f"wrote ground truth {header}")
    return 0


def _cmd_inspect(args) -> int:
    for path in args.paths:
        base = Path(path)
        if parse_header(base)["dtype"] == "f32":
            # Two passes over the bands, so the cube is never held whole;
            # float64 sums band by band, as the mean and std always were.
            fields, bands = cube_bands(base)
            size = fields["height"] * fields["width"] * fields["bands"]
            low, high, total = math.inf, -math.inf, 0.0
            for band in bands:
                low, high = min(low, band.min()), max(high, band.max())
                total += band.sum(dtype=np.float64)
            mean = total / size
            deviations = (band.astype(np.float64).ravel() - mean for band in cube_bands(base)[1])
            std = math.sqrt(sum(d @ d for d in deviations) / size)
            print(
                f"{base}: hyperspectral cube {fields['height']} x {fields['width']} pixels, "
                f"{fields['bands']} bands"
            )
            print(f"  values: min {low:.4f} max {high:.4f} mean {mean:.4f} std {std:.4f}")
        else:
            gt = load_ground_truth(base)
            labeled = int(np.sum(gt.labels > 0))
            print(
                f"{base}: ground truth {gt.height} x {gt.width} pixels, "
                f"{gt.num_classes} classes, {labeled} labeled pixels"
            )
            counts = np.bincount(gt.labels.ravel(), minlength=gt.num_classes + 1)
            names = gt.class_names or default_class_names(gt.num_classes)
            for cls in range(1, gt.num_classes + 1):
                print(f"  {cls} {names[cls - 1]}: {counts[cls]}")
    return 0


# --- parser / entry point ----------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hsikit", description="Hyperspectral image classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a classification pipeline", add_help=True)
    run.add_argument("--config", help="JSON config file; flags override its values")
    for flag, field, kwargs in _RUN_FLAGS:
        metavar = None if "choices" in kwargs else field.rsplit(".", 1)[-1].upper()
        run.add_argument(
            flag, dest=field, metavar=metavar, help=f"sets config field {field}", **kwargs
        )
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare", help="McNemar's test between two run directories")
    compare.add_argument("run_a")
    compare.add_argument("run_b")
    compare.add_argument("--json", action="store_true", help="machine-readable output")
    compare.set_defaults(func=_cmd_compare)

    convert = sub.add_parser("convert", help="raw binary dump to container pair")
    convert.add_argument("--input", required=True, help="flat little-endian binary file")
    convert.add_argument("--height", type=int, required=True)
    convert.add_argument("--width", type=int, required=True)
    convert.add_argument("--bands", type=int, required=True)
    convert.add_argument("--dtype", choices=list(DTYPES), required=True)
    convert.add_argument("--order", choices=list(INTERLEAVES), default="bsq")
    convert.add_argument("--class-names", help="comma-separated names for ground truth")
    convert.add_argument("--output", required=True, help="output base path (no extension)")
    convert.set_defaults(func=_cmd_convert)

    inspect = sub.add_parser("inspect", help="summarize container files")
    inspect.add_argument("paths", nargs="+")
    inspect.set_defaults(func=_cmd_inspect)
    return parser


# The errors main reports instead of raising: exception type -> (exit
# code, stderr prefix), the first matching entry wins. A StageError is a
# HsikitError and reports its cause's exit code under the prefix "error".
# A dead pool worker arrives as WorkerError, a HsikitError: naming the
# pool's own BrokenProcessPool here would import concurrent.futures into
# every run.
_EXIT_STATUS = {
    UsageError: (1, "usage error"),
    ConvergenceError: (3, "numerical error"),
    FloatingPointError: (3, "numerical error"),
    HsikitError: (2, "data error"),
    ValueError: (2, "data error"),
    OSError: (2, "data error"),
    MemoryError: (2, "data error"),
}


def _exit_status(exc: Exception) -> tuple[int, str]:
    if isinstance(exc, StageError):
        return _exit_status(exc.cause)[0], "error"
    return next(status for kind, status in _EXIT_STATUS.items() if isinstance(exc, kind))


def exit_code_for(exc: Exception) -> int:
    """The exit code main returns for an error it reports."""
    return _exit_status(exc)[0]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return int(args.func(args) or 0)
    except tuple(_EXIT_STATUS) as exc:
        code, prefix = _exit_status(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

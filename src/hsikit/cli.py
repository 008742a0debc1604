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
for a fixed numpy/BLAS build, whatever its BLAS thread count, so two
identical runs produce byte-identical artifacts; timings.json is the
documented canonicalization cut. A run reads the cube band by band
into its train and test samples and, when it reduces them, holds only
their projections from the reduce stage on. The six files are written to
temporary names only after the whole pipeline has succeeded, and
renamed into place only once all six are written and no target is a
directory, so neither a failed stage nor a failed write leaves a mix of
old and new artifacts. report.json and predictions.json are the
records `RunReport` and `RunPredictions`: the run writes them and
`compare` reads them back through the same classes, so a file whose
fields or schema tag do not decode is a data error naming the file and
the field. Every JSON file is written and read by `records`, which
holds the file format; `run` reports a `--config` file that it cannot
read as a usage error under `config file:`, and a value that the writer
rejects fails the write, which then leaves no artifact.

Exit codes: 0 success, 1 usage (bad flags or config), 2 data error
(unreadable or malformed inputs, degenerate datasets, mismatched
comparisons), 3 numerical failure (factorization non-convergence,
floating-point breakdown).

Configs are JSON with the same shape as the config.json artifact.
Each `run` flag sets one config field, which its help text names, and
overrides the file's value; the flags of one section replace the file's
whole `reduction` or `classifier` object, so a reduction flag without
`--reduction` is a usage error. One private resolver, `_resolve`, checks
the merged settings: a bad value or a key it does not know, at any
level, is a usage error that names the config field, e.g.
`classifier.grid.c must be > 0, got -2.0`. Each settings section
decodes through `records`, by the rules that read the run's artifacts;
this module holds only the config's layout. It returns the config.json
snapshot with the settings objects the stages take: the reduce stage's
fit (None, an int k or a `RandomizedSvdParams`), the classifier kind's
params and the optional `SvmGrid`. `resolve_config` returns the
snapshot; `run_pipeline` resolves the config it is given before any data
is read, so a hand-made config is checked as a file's is, and a resolved
one runs as given.
"""

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Annotated

import numpy as np

from . import __version__
from .classify import (
    GbdtParams,
    SvmGrid,
    SvmParams,
    gbdt_predict,
    gbdt_train,
    grid_search_cv,
    svm_predict,
    svm_train,
)
from .dimred import fit_transform, transform
from .errors import ConvergenceError, DataFormatError, HsikitError, naming
from .evaluation import EvalReport, evaluate, mcnemar, render_map, write_ppm
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
from .records import Record, check_int, check_keys, coerce, json_bytes, read_json

# Unused here: hsibench/pipeline.py wraps them by name until ROADMAP item 1, step 3.
from .dimred import fit_pca, fit_rpca  # noqa: F401
from .hsi_data import extract_labeled, load_cube, stratified_split  # noqa: F401

__all__ = ["main", "run_pipeline", "UsageError", "StageError"]


class UsageError(HsikitError):
    """Bad flags or config; maps to exit code 1."""


class StageError(HsikitError):
    """A pipeline stage failed; carries the stage name and the cause,
    and names the file the stage was writing, if one."""

    def __init__(self, stage: str, cause: Exception, file: str | None = None):
        where = "" if file is None else f"{file}: "
        super().__init__(f"stage '{stage}' failed: {where}{cause}")
        self.stage = stage
        self.cause = cause


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# --- configuration -----------------------------------------------------

# The settings class of each classifier kind.
_CLASSIFIER_PARAMS = {"svm": SvmParams, "gbdt": GbdtParams}
# The reduction methods a config may name.
_REDUCTION_METHODS = ("none", "pca", "rpca")


def _params(cls, raw, name: str, other=(), **fixed):
    """``cls`` decoded by ``records`` at the config path ``name`` from the
    config object ``raw``, over the defaults of ``cls(**fixed)``: the keys
    of ``raw`` are the ``other`` keys, which are skipped, and the fields
    of ``cls`` not in ``fixed``. The caller checks ``fixed`` itself."""
    check_keys(raw, name, [*other, *(f.name for f in fields(cls) if f.name not in fixed)])
    given = {key: v for key, v in raw.items() if key not in other}
    return cls.from_dict({**cls(**fixed).to_dict(), **given}, name)


def _choice(cfg: dict, section: str, key: str, choices) -> tuple:
    """The config section ``section`` and the value of its ``key``, one of
    ``choices``; raises ValueError otherwise."""
    raw = cfg[section]
    if not isinstance(raw, dict) or key not in raw:
        raise ValueError(f"config field '{section}' must be an object with a '{key}'")
    # Tested as a string first: a value such as [] cannot be hashed.
    if not isinstance(raw[key], str) or raw[key] not in choices:
        raise ValueError(f"unknown {section} {key} {raw[key]!r} (expected {', '.join(choices)})")
    return raw, raw[key]


def _resolve(file_config: dict, overrides: dict):
    """``file_config`` merged with ``overrides``, every default filled and
    every field checked, as (snapshot, fit, params, grid): ``snapshot`` is
    what config.json holds; ``fit`` is None, an int k (exact PCA) or a
    ``RandomizedSvdParams`` with the run seed; ``params`` the kind's
    settings class; ``grid`` an ``SvmGrid``, or None for a null or false
    grid (true is ``{}``, all defaults). The snapshot's ``reduction`` and
    ``classifier`` are written from those objects. Each settings section
    decodes through ``records``, by the rules that read a run's
    artifacts; this function holds only the config's layout. A bad value
    or a key that a level does not take raises ValueError naming its
    config field, which becomes a UsageError here, in one place. A
    sketch's fit to the data is checked once that is read."""
    try:
        if not isinstance(file_config, dict):
            raise ValueError(f"config must be an object, got {file_config!r}")
        cfg = {"reduction": {"method": "none"}, "classifier": {"kind": "svm"}, **file_config}
        cfg.update((key, value) for key, value in overrides.items() if value is not None)
        paths = (("cube", None), ("ground_truth", None), ("output", "hsikit_run"))
        out = {key: coerce(cfg.get(key, default), str, key) for key, default in paths}
        out["train_fraction"] = coerce(cfg.get("train_fraction", 0.7), float, "train_fraction")
        out["seed"] = coerce(cfg.get("seed", 0), int, "seed")
        for key, _ in paths:
            if not out[key]:  # Path("") is the working directory
                raise ValueError(f"config field {key!r} must be a non-empty path")
            try:  # the file system encoding may lack a character; no OS path holds a NUL
                unencodable = b"\0" in os.fsencode(out[key])
            except UnicodeEncodeError:
                unencodable = True
            if unencodable:
                raise ValueError(f"config field {key!r} cannot be encoded as a path")
        if not 0.0 < out["train_fraction"] < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {out['train_fraction']}")

        reduction, method = _choice(cfg, "reduction", "method", _REDUCTION_METHODS)
        out["reduction"] = section = {"method": method}
        fit = None
        if method != "none":
            fit = coerce(reduction.get("components"), int, "reduction.components")
            check_int(fit, "reduction.components", 1)
            section["components"] = fit
        # rpca decodes the whole section, so an unknown key's error lists every allowed one.
        if method == "rpca":
            fit = _params(RandomizedSvdParams, reduction, "reduction", section, k=fit,
                          seed=out["seed"])
            section.update(oversampling=fit.oversampling, power_iterations=fit.power_iterations)
        else:
            check_keys(reduction, "reduction", section)

        classifier, kind = _choice(cfg, "classifier", "kind", _CLASSIFIER_PARAMS)
        allowed = ("kind", "params", "grid") if kind == "svm" else ("kind", "params")
        check_keys(classifier, "classifier", allowed)
        params = _params(_CLASSIFIER_PARAMS[kind], classifier.get("params", {}),
                         "classifier.params")
        grid = classifier.get("grid")
        if grid is None or grid is False:
            grid = None
        else:
            grid = _params(SvmGrid, {} if grid is True else grid, "classifier.grid")
        out["classifier"] = {"kind": kind, "params": params.to_dict()}
        if kind == "svm":
            out["classifier"]["grid"] = grid and grid.to_dict()
        check_keys(cfg, "top-level config", out)  # out has every top-level key
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return out, fit, params, grid


def resolve_config(file_config: dict, overrides: dict) -> dict:
    """Merge a config file with flag overrides and fill all defaults.

    The result is the canonical snapshot written to config.json; flags
    win over file values, file values win over defaults. Every value is
    checked here, and a key this function does not know, at any level, is
    rejected, so a config that cannot run as written raises UsageError
    before any data is read. The grid's lists keep the order given. A
    snapshot resolves to itself.
    """
    return _resolve(file_config, overrides)[0]


def method_label(config: dict) -> str:
    reduction = config["reduction"]
    if reduction["method"] == "none":
        suffix = "original"
    else:
        suffix = f"{reduction['method']}-{reduction['components']}"
    return f"{config['classifier']['kind']}/{suffix}"


# --- the run pipeline --------------------------------------------------


@dataclass
class RunReport(Record):
    """report.json: a run's evaluation, with its method label and sizes."""

    SCHEMA = "hsikit/report/1"

    toolkit_version: str
    method: str
    n_train: int
    n_test: int
    evaluation: EvalReport


@dataclass
class RunPredictions(Record):
    """predictions.json: the test pixels' indices, truth and predicted
    labels, aligned, with the dataset, seed and split that make two runs
    comparable."""

    SCHEMA = "hsikit/predictions/1"

    dataset: dict  # height, width and bands of the cube
    seed: int
    train_fraction: float
    method: str
    pixel_indices: Annotated[np.ndarray, np.int64]
    truth: Annotated[np.ndarray, np.int64]
    predicted: Annotated[np.ndarray, np.int64]

    def __post_init__(self):
        shapes = [np.shape(a) for a in (self.truth, self.predicted, self.pixel_indices)]
        if len(set(shapes)) > 1 or len(shapes[0]) != 1:
            raise ValueError(f"truth, predicted, pixel_indices must share one 1-D shape: {shapes}")


def run_pipeline(config: dict) -> RunReport:
    """Resolve and execute a config and write artifacts; returns the
    report.json record.

    Raises StageError around any failing stage; artifacts are only
    written once every stage has succeeded. The cube is never held
    whole: the load stage splits the ground truth's labels, then reads
    the cube band by band into the train and test sets, so loading holds
    the labeled samples, in the cube's float32, plus one band. A
    reduction replaces both sets with their projections, so the
    full-band samples are freed before training starts and the later
    stages hold only the reduced ones. Without one, each classifier
    computes on the float64 copy of the float32 samples.
    ``config`` is resolved first, as resolve_config resolves a file, so a
    setting that breaks a rule raises UsageError before any data is read,
    and config.json holds the resolved snapshot; a resolved config runs
    as given.
    """
    config, fit, params, grid = _resolve(config, {})
    out_dir = Path(config["output"])
    starts = [("load", time.perf_counter())]  # (stage, start time) in run order

    def begin(stage):
        starts.append((stage, time.perf_counter()))

    try:
        gt = load_ground_truth(config["ground_truth"])
        train_set, test_set = load_split(config["cube"], gt, config["train_fraction"], config["seed"])

        begin("reduce")
        bands = train_set.features.shape[1]
        pca_model = None
        if fit is not None:
            pca_model, scores = fit_transform(train_set.features, fit)
            train_set = replace(train_set, features=scores)
            test_set = replace(test_set, features=transform(pca_model, test_set.features))

        begin("train")
        clf = config["classifier"]
        grid_record = None
        if clf["kind"] == "svm":
            if grid is not None:
                best_c, best_gamma, table = grid_search_cv(
                    train_set, grid, seed=config["seed"], params=params
                )
                params = replace(params, c=best_c, gamma=best_gamma)
                grid_record = {"best": {"c": best_c, "gamma": best_gamma}, "table": table}
            model = svm_train(train_set, params)
            predictor = svm_predict
        else:
            model = gbdt_train(train_set, params, seed=config["seed"])
            predictor = gbdt_predict

        begin("predict")
        predicted = predictor(model, test_set.features)

        begin("evaluate")
        evaluation = evaluate(predicted, test_set.labels, gt.num_classes)
        image = render_map(gt, predicted, test_set.pixel_indices)
    except (HsikitError, ValueError, OSError) as exc:
        raise StageError(starts[-1][0], exc)

    begin("write")
    label = method_label(config)
    report = RunReport(__version__, label, len(train_set), len(test_set), evaluation)
    predictions = RunPredictions(
        {"height": gt.height, "width": gt.width, "bands": bands}, config["seed"],
        config["train_fraction"], label, test_set.pixel_indices, test_set.labels, predicted,
    )
    model_doc = {
        "schema": "hsikit/run-model/1",
        "reduction": None if pca_model is None else pca_model.to_dict(),
        "classifier": {"kind": clf["kind"], "grid": grid_record, "model": model.to_dict()},
    }

    # Every artifact is written to <name>.tmp before any is renamed into
    # place, so a failed write leaves the previous run's artifacts as they
    # were. Files are renamed one by one, not swapped in as a directory,
    # because the output directory may hold files that are not the run's.
    names = ("config.json", "report.json", "predictions.json", "model.json", "map.ppm",
             "timings.json")
    *doc_paths, map_path, timings_path = staged = [out_dir / f"{name}.tmp" for name in names]
    name = None  # the artifact being written, for the error
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        docs = (config, report.to_dict(), predictions.to_dict(), model_doc)
        for name, path, doc in zip(names, doc_paths, docs):
            path.write_bytes(json_bytes(doc))
        name = "map.ppm"
        write_ppm(image, map_path)
        # Each stage runs until the next begins; the last until now. total_ms
        # is the wall clock from entry, up to the writes it cannot time: its
        # own file and the renames.
        starts.append(("total", time.perf_counter()))
        timings_doc = {"schema": "hsikit/timings/1"}
        for (stage, start), (_, end) in zip(starts, starts[1:]):
            timings_doc[f"{stage}_ms"] = round((end - start) * 1000.0, 3)
        timings_doc["total_ms"] = round((starts[-1][1] - starts[0][1]) * 1000.0, 3)
        name = "timings.json"
        timings_path.write_bytes(json_bytes(timings_doc))
        # A directory in a target's place would fail its rename after the
        # ones before it had succeeded.
        for name, tmp in zip(names, staged):
            target = tmp.with_suffix("")
            if target.is_dir():
                raise IsADirectoryError(f"{target} is a directory, not an artifact")
    except BaseException as exc:
        # Only files are removed: unlinking a directory in a staged path's
        # place would raise over the write error. After a failed mkdir
        # out_dir may be a file, and no path under it is a file.
        for tmp in filter(Path.is_file, staged):
            tmp.unlink()
        if isinstance(exc, (ValueError, OSError)):
            raise StageError("write", exc, name)
        raise
    for tmp in staged:
        os.replace(tmp, tmp.with_suffix(""))
    return report


# --- subcommands -------------------------------------------------------


# Each `run` flag: (flag, the config field it sets, argparse keywords).
_RUN_FLAGS = (
    ("--cube", "cube", {}),
    ("--gt", "ground_truth", {}),
    ("--output", "output", {}),
    ("--train-fraction", "train_fraction", {"type": float}),
    ("--seed", "seed", {"type": int}),
    ("--reduction", "reduction.method", {"choices": _REDUCTION_METHODS}),
    ("--components", "reduction.components", {"type": int}),
    ("--oversampling", "reduction.oversampling", {"type": int}),
    ("--power-iterations", "reduction.power_iterations", {"type": int}),
    ("--classifier", "classifier.kind", {"choices": list(_CLASSIFIER_PARAMS)}),
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
            file_config = read_json(Path(args.config))
        except (OSError, DataFormatError) as exc:
            raise UsageError(f"config file: {exc}") from None
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
    # The reduction flags replace the file's whole section, method included.
    if "method" not in overrides.get("reduction", {"method": None}):
        flags = " ".join(flag for flag, field, _ in _RUN_FLAGS
                         if field.startswith("reduction.") and getattr(args, field) is not None)
        raise UsageError(f"{flags} without --reduction: the reduction flags replace the "
                         "config's whole reduction section, so --reduction must be given too")
    # Without --classifier, the first kind whose settings a flag sets.
    classifier = overrides.get("classifier")
    if classifier is not None and "kind" not in classifier:
        given = set(classifier.get("params", {}))
        kinds = [k for k, cls in _CLASSIFIER_PARAMS.items() if given & {f.name for f in fields(cls)}]
        classifier["kind"] = kinds[0] if kinds else "svm"
    config = resolve_config(file_config, overrides)
    report = run_pipeline(config)
    ev = report.evaluation
    print(f"{report.method}: trained on {report.n_train} pixels, tested on {report.n_test}")
    print(f"overall accuracy {ev.overall_accuracy:.4f} over {ev.num_classes} classes")
    print(f"artifacts written to {config['output']}")
    return 0


def _cmd_compare(args) -> int:
    # Each run's predictions.json, then its report.json: a file that does
    # not decode, schema tag included, is a data error naming the file and
    # then the fault, e.g. `evaluation is missing fields ['n_test']`.
    run_a, report_a, run_b, report_b = (
        read_json(Path(run, name), record) for run in (args.run_a, args.run_b)
        for name, record in (("predictions.json", RunPredictions), ("report.json", RunReport)))
    for field in ("dataset", "seed", "train_fraction"):
        a, b = getattr(run_a, field), getattr(run_b, field)
        if a != b:
            raise DataFormatError(f"runs are not comparable: {field} differs ({a!r} vs {b!r})")
    if not (
        np.array_equal(run_a.pixel_indices, run_b.pixel_indices)
        and np.array_equal(run_a.truth, run_b.truth)
    ):
        raise DataFormatError("runs are not comparable: test splits differ")
    result = mcnemar(run_a.predicted, run_b.predicted, run_a.truth)
    row = {
        "a": {"method": run_a.method, "accuracy": report_a.evaluation.overall_accuracy},
        "b": {"method": run_b.method, "accuracy": report_b.evaluation.overall_accuracy},
        "mcnemar": result.to_dict(),
    }
    if args.json:
        sys.stdout.write(json_bytes(row).decode("utf-8"))
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
        with naming(args.input):
            cube = HsiCube(args.height, args.width, args.bands, values)
        header = save_cube(cube, args.output)
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

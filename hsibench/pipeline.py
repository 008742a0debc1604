"""One in-process `hsikit run` for the traced benchmark run.

    python hsibench/pipeline.py plain  CONFIG RESULT
    python hsibench/pipeline.py traced CONFIG RESULT

``plain`` times one untraced ``run_pipeline`` call. ``traced`` wraps the
public functions of each hsikit module at the place where their callers
look them up, runs ``run_pipeline`` twice, restores the originals and
reports the per-layer metrics of the first call. The second call is only
there to check that the counters repeat. RESULT is written as JSON.

Span names are ``<layer>.<what>``; the layers are hsikit's modules.
"""

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

# Per-layer metrics that count work. "counted" ones are read from what the
# program returned and must repeat exactly; "computed" ones are derived from
# sizes, not counted by the program.
COUNTED = (
    "linalg.qr_calls",
    "svm.smo_iterations",
    "svm.support_vectors",
    "svm.pairs_unconverged",
    "svm.grid_fits",
    "svm.grid_smo_iterations",
    "gbdt.trees",
    "gbdt.leaves",
)
COMPUTED = (
    "svm.max_pair_rows",
    "svm.predict_kernel_evals",
    "gbdt.goss_rows",
    "gbdt.predict_tree_evals",
)


class Tracer:
    """Spans kept in memory: name, parent span index, start, end, counters."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span; ``count(arguments, result)`` gives its counters."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None, "counters": {}}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count:
                span["counters"] = count(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _svm_model_counters(arguments, model):
    labels = arguments["train"].labels
    per_class = {int(c): int((labels == c).sum()) for c in model.classes}
    pair_rows = [per_class[m.class_pos] + per_class[m.class_neg] for m in model.machines]
    return {
        "smo_iterations": sum(m.n_iter for m in model.machines),
        "support_vectors": sum(len(m.dual_coef) for m in model.machines),
        "pairs_unconverged": sum(not m.converged for m in model.machines),
        "max_pair_rows": max(pair_rows),
    }


def _svm_predict_counters(arguments, _):
    machines = arguments["model"].machines
    return {"kernel_evals": len(arguments["x"]) * sum(len(m.dual_coef) for m in machines)}


def _gbdt_model_counters(arguments, model):
    n = len(arguments["train"])
    params = model.params
    if params.goss_top_rate > 0.0:
        top = int(round(params.goss_top_rate * n))
        rows_per_round = top + min(int(round(params.goss_other_rate * n)), n - top)
    else:
        rows_per_round = n
    trees = [tree for round_trees in model.trees for tree in round_trees]
    return {
        "trees": len(trees),
        "leaves": sum(tree.n_leaves for tree in trees),
        "goss_rows": rows_per_round * len(model.trees),
    }


def _gbdt_predict_counters(arguments, _):
    trees = arguments["model"].trees
    return {"tree_evals": len(arguments["x"]) * sum(len(r) for r in trees)}


def _targets():
    """(module, attribute, span name, counter callback) of each wrapped function.

    The cli entries time the stage calls; the svm, dimred and linalg entries
    see the calls made inside grid_search_cv, fit_pca / fit_rpca and
    randomized_range_finder. hsikit is imported here, not at module level, so
    run.py can read COUNTED and COMPUTED without it.
    """
    import hsikit.classify.svm
    import hsikit.cli
    import hsikit.dimred
    import hsikit.linalg

    return (
        (hsikit.cli, "run_pipeline", "cli.run_pipeline", None),
        (hsikit.cli, "load_cube", "hsi_data.load", None),
        (hsikit.cli, "load_ground_truth", "hsi_data.load", None),
        (hsikit.cli, "extract_labeled", "hsi_data.extract", None),
        (hsikit.cli, "stratified_split", "hsi_data.split", None),
        (hsikit.cli, "fit_pca", "dimred.fit", None),
        (hsikit.cli, "fit_rpca", "dimred.fit", None),
        (hsikit.cli, "transform", "dimred.transform", None),
        (hsikit.cli, "grid_search_cv", "svm.grid", None),
        (hsikit.cli, "svm_train", "svm.train", _svm_model_counters),
        (hsikit.cli, "svm_predict", "svm.predict", _svm_predict_counters),
        (hsikit.cli, "gbdt_train", "gbdt.train", _gbdt_model_counters),
        (hsikit.cli, "gbdt_predict", "gbdt.predict", _gbdt_predict_counters),
        (hsikit.cli, "evaluate", "evaluation.evaluate", None),
        (hsikit.cli, "render_map", "evaluation.map", None),
        (hsikit.cli, "write_ppm", "evaluation.map", None),
        (hsikit.classify.svm, "svm_train", "svm.grid_train", _svm_model_counters),
        (hsikit.classify.svm, "svm_predict", "svm.grid_predict", None),
        (hsikit.dimred, "exact_svd", "linalg.svd", None),
        (hsikit.dimred, "randomized_svd", "linalg.svd", None),
        (hsikit.linalg, "householder_qr", "linalg.qr", None),
    )


@contextmanager
def traced(tracer):
    saved = []
    try:
        for module, attr, name, count in _targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans):
    """(wall time, per-layer metrics) of one traced run_pipeline call."""

    def seconds(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def counter(name, key):
        return sum(s["counters"][key] for s in spans if s["name"] == name)

    (root,) = [i for i, s in enumerate(spans) if s["name"] == "cli.run_pipeline"]
    pipeline_s = spans[root]["end"] - spans[root]["start"]
    children_s = sum(s["end"] - s["start"] for s in spans if s["parent"] == root)
    svm_train_s = seconds("svm.train")
    smo_iterations = counter("svm.train", "smo_iterations")
    gbdt_train_s = seconds("gbdt.train")
    leaves = counter("gbdt.train", "leaves")
    return pipeline_s, {
        "hsi_data.load_s": seconds("hsi_data.load"),
        "hsi_data.extract_s": seconds("hsi_data.extract"),
        "hsi_data.split_s": seconds("hsi_data.split"),
        "dimred.fit_s": seconds("dimred.fit"),
        "dimred.transform_s": seconds("dimred.transform"),
        "linalg.qr_s": seconds("linalg.qr"),
        "linalg.qr_calls": sum(s["name"] == "linalg.qr" for s in spans),
        "linalg.svd_s": seconds("linalg.svd"),
        "svm.train_s": svm_train_s,
        "svm.smo_iterations": smo_iterations,
        "svm.us_per_iteration": svm_train_s * 1e6 / smo_iterations if smo_iterations else 0.0,
        "svm.support_vectors": counter("svm.train", "support_vectors"),
        "svm.pairs_unconverged": counter("svm.train", "pairs_unconverged"),
        "svm.max_pair_rows": max(
            (s["counters"]["max_pair_rows"] for s in spans if s["name"] == "svm.train"),
            default=0,
        ),
        "svm.grid_s": seconds("svm.grid"),
        "svm.grid_fits": sum(s["name"] == "svm.grid_train" for s in spans),
        "svm.grid_smo_iterations": counter("svm.grid_train", "smo_iterations"),
        "svm.predict_s": seconds("svm.predict"),
        "svm.predict_kernel_evals": counter("svm.predict", "kernel_evals"),
        "gbdt.train_s": gbdt_train_s,
        "gbdt.trees": counter("gbdt.train", "trees"),
        "gbdt.leaves": leaves,
        "gbdt.us_per_leaf": gbdt_train_s * 1e6 / leaves if leaves else 0.0,
        "gbdt.goss_rows": counter("gbdt.train", "goss_rows"),
        "gbdt.predict_s": seconds("gbdt.predict"),
        "gbdt.predict_tree_evals": counter("gbdt.predict", "tree_evals"),
        "evaluation.evaluate_s": seconds("evaluation.evaluate"),
        "evaluation.map_s": seconds("evaluation.map"),
        "cli.self_s": pipeline_s - children_s,
        "trace.coverage": children_s / pipeline_s,
    }


def main(argv):
    import hsikit.cli

    mode, config_path, result_path = argv
    with open(config_path, encoding="utf-8") as fh:
        config = hsikit.cli.resolve_config(json.load(fh), {})
    if mode == "plain":
        start = time.perf_counter()
        hsikit.cli.run_pipeline(config)
        result = {"pipeline_s": time.perf_counter() - start}
    else:
        runs = []
        for _ in range(2):
            tracer = Tracer()
            with traced(tracer):
                hsikit.cli.run_pipeline(config)
            runs.append(layer_metrics(tracer.spans))
        (pipeline_s, first), (_, second) = runs
        result = {
            "pipeline_s": pipeline_s,
            "metrics": first,
            "repeat": {name: second[name] for name in COUNTED},
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])

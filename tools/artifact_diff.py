"""Compare the artifacts of two source trees, byte for byte.

    python tools/artifact_diff.py BASE

exports the commit BASE with ``git archive`` into a temporary directory,
makes each benchmark workload's scene once with BASE's
``hsibench/scene.py``, and runs ``python -m hsikit run --config`` on each
scene with BASE's sources and with the sources of this checkout, at run
seeds 1 and 2, with one OpenBLAS/OMP thread and the same config, relative
``output`` included. The workloads and their configs are BASE's
``hsibench/workloads.py``; after them come the runs of ``UNREDUCED`` on
the ``svm-grid`` scene, a path that no workload takes: ``reduction:
none``, once with the default SVM and once with a 10-tree GBDT. For
each workload and seed it prints both runs' peak RSS (the child's
``ru_maxrss``, as ``hsibench/run.py`` reads it), a report and not a
gate; as a child's ``ru_maxrss`` starts at the tool's own, a reading at
or below the tool's own peak prints as ``≤`` that peak, marked as the
tool's, and never as the run's; the tool compares the artifacts file
to file and reads one only to describe a difference, so its own peak
stays below that of the runs it measures. Then come one line per
deterministic artifact (every artifact but ``timings.json``), ``same``
or ``differs``. Under a JSON artifact that differs it prints each
generalized path whose leaves differ, list indices written ``[*]`` (e.g.
``classifier.model.machines[*].dual_coef[*]``), with the number of
differing leaves and the largest |delta| of the numeric ones, and for
``predictions.json`` how many ``predicted`` entries changed. After the
artifacts of each workload and seed comes one ``compare --json`` line:
``python -m hsikit compare --json`` on BASE's run and this checkout's
run, with BASE's sources and with this checkout's, is ``same`` when
both exit 0 and print the same bytes; under ``differs`` come the leaves
that differ, or the failed command's exit code and output. Then come
both trees' messages: each case of ``CASES`` breaks one input rule (a
config that breaks one config rule, is not an object or not JSON,
repeats a key or is nested too deeply to parse, a run file that lacks a
field or is not an object, a cube payload cut short, a raw dump that
holds a NaN, a GBDT learning rate whose scores overflow, an output that
names a file, a directory where an artifact is staged), and runs
``hsikit run``, ``compare`` or ``convert`` on it with each tree's
sources, beside a good run of the first workload's scene made with
BASE's sources. A case is ``same`` when both exit with the same code
and print the same stderr; under ``differs`` come both sides' exit code
and stderr, so a change to a reader shows which messages moved. Last
come both trees' code lines of each module of ``src/hsikit``, as
``tools/code_lines.py`` counts them. It exits 1 if any artifact differs
or any run or compare fails; a message that moved does not count, as a
change to a reader may move one on purpose.

Nothing is written into the checkout: the runs work in the temporary
directory, and Python writes no bytecode.
"""

import filecmp
import importlib.util
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from code_lines import code_lines

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
ARTIFACTS = ("config.json", "report.json", "predictions.json", "model.json", "map.ppm")


def _run_file(name: str, edit):
    """A case that compares a good run ``a`` with its copy ``b`` whose
    file ``name`` holds ``edit`` of its document."""

    def make(case: Path, scene_dir: Path, good_run: Path) -> list:
        for side in ("a", "b"):
            shutil.copytree(good_run, case / side)
        path = case / "b" / name
        path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))))
        return ["compare", "a", "b"]

    return make


def _config(text: str, cut: int = 0):
    """A case that runs the config ``text`` beside a copy of the scene
    whose cube payload lacks its last ``cut`` bytes."""

    def make(case: Path, scene_dir: Path, good_run: Path) -> list:
        for path in scene_dir.glob("scene*.hsi[hr]"):
            shutil.copy(path, case / path.name)
        payload = case / "scene.hsir"
        data = payload.read_bytes()
        payload.write_bytes(data[: len(data) - cut])
        (case / "config.json").write_text(text, encoding="utf-8")
        return ["run", "--config", "config.json"]

    return make


def _without_n_test(report: dict) -> dict:
    del report["evaluation"]["n_test"]
    return report


def _broken_config(fields: dict):
    """A case that runs a config of ``fields`` whose cube and ground truth
    do not exist, so a tree that accepts the config fails at the load
    stage."""
    missing = {"cube": "missing.hsih", "ground_truth": "missing_gt.hsih"}
    return _config(json.dumps({**missing, **fields}))


def _convert_non_finite(case: Path, scene_dir: Path, good_run: Path) -> list:
    """A case that converts a 2 x 2 x 1 float32 dump of NaNs."""
    (case / "raw.bin").write_bytes(b"\x00\x00\xc0\x7f" * 4)
    return ["convert", "--input", "raw.bin", "--height", "2", "--width", "2", "--bands", "1",
            "--dtype", "f32", "--output", "c1"]


def _staged_path_a_directory(case: Path, scene_dir: Path, good_run: Path) -> list:
    """A case that runs the scene into ``out``, where a directory takes
    ``model.json``'s staged path."""
    (case / "out" / "model.json.tmp").mkdir(parents=True)
    config = '{"cube": "scene.hsih", "ground_truth": "scene_gt.hsih", "output": "out"}'
    return _config(config)(case, scene_dir, good_run)


# Inputs that break one input rule each; a config's cube and ground
# truth do not exist unless the case is about them.
CASES = {
    "unknown key": _broken_config({"classifier": {"kind": "svm", "params": {"cc": 1.0}}}),
    "section not an object": _broken_config({"classifier": {"kind": "svm", "params": 3}}),
    "list field a number": _broken_config({"classifier": {"kind": "svm", "grid": {"c": 5}}}),
    "class rule": _broken_config(
        {"classifier": {"kind": "gbdt", "params": {"goss_top_rate": 0.6, "goss_other_rate": 0.5}}}
    ),
    "config not an object": _config("[1, 2]"),
    "output holds a NUL": _broken_config({"output": "a\0b"}),
    "report without n_test": _run_file("report.json", _without_n_test),
    "predictions a list": _run_file("predictions.json", lambda doc: [1, 2]),
    "truncated config": _config('{"seed": 1,'),
    "repeated config key": _config(
        '{"cube": "missing.hsih", "ground_truth": "missing_gt.hsih", "seed": 1, "seed": 2}'
    ),
    "truncated payload": _config('{"cube": "scene.hsih", "ground_truth": "scene_gt.hsih"}', cut=2),
    # Raw text: json.dumps cannot write a document nested this deeply.
    "deeply nested config": _config("[" * 100_000 + "]" * 100_000),
    "overflowing GBDT": _config(
        '{"cube": "scene.hsih", "ground_truth": "scene_gt.hsih", "classifier": '
        '{"kind": "gbdt", "params": {"num_trees": 3, "learning_rate": 1e308}}}'
    ),
    "output a file": _config(
        '{"cube": "scene.hsih", "ground_truth": "scene_gt.hsih", "output": "config.json"}'
    ),
    "convert non-finite": _convert_non_finite,
    "staged path a directory": _staged_path_a_directory,
}


# Runs on the original bands of the svm-grid scene, by name: no workload
# runs a classifier on the cube's samples unreduced.
UNREDUCED = {
    "none-svm": {"train_fraction": 0.7, "reduction": {"method": "none"},
                 "classifier": {"kind": "svm"}},
    "none-gbdt": {"train_fraction": 0.7, "reduction": {"method": "none"},
                  "classifier": {"kind": "gbdt", "params": {"num_trees": 10}}},
}


def _env(tree: Path) -> dict:
    return dict(
        os.environ,
        PYTHONPATH=str(tree / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )


def _peak(child_kib: int, floor_kib: int) -> str:
    """A child's peak RSS, its ``ru_maxrss``, in MiB; or, when that is at
    or below ``floor_kib``, the tool's own ``ru_maxrss``, marked as not
    the run's peak: Linux starts a child's ``ru_maxrss`` at the
    high-water mark of the process that spawned it."""
    if child_kib <= floor_kib:
        return f"≤ {floor_kib / 1024.0:.1f} MiB (the tool's own peak)"
    return f"{child_kib / 1024.0:.1f} MiB"


def _hsikit(tree: Path, argv: list, cwd: Path) -> tuple:
    """(exit code, stdout, stderr, peak RSS) of ``python -m hsikit *argv``
    with ``tree``'s sources, in ``cwd``. The peak is the child's
    ``ru_maxrss`` from ``os.wait4``, as ``hsibench/run.py`` reads it,
    written by :func:`_peak` against the tool's own ``ru_maxrss`` read
    as the child ends, which holds all the tool held when it spawned it."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "hsikit", *argv], cwd=cwd,
                                env=_env(tree), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        proc.returncode = os.waitstatus_to_exitcode(status)
        for stream in (out, err):
            stream.seek(0)
        text = [stream.read().decode("utf-8", "replace") for stream in (out, err)]
    return proc.returncode, *text, _peak(usage.ru_maxrss, floor)


def run_tree(tree: Path, config: dict, run_dir: Path) -> tuple:
    """(the artifacts of ``hsikit run --config`` on ``config`` with
    ``tree``'s sources in ``run_dir``, which it makes, as {name: path},
    or the run's output if it failed; the run's peak RSS, as
    :func:`_hsikit` writes it)."""
    run_dir.mkdir(parents=True)
    (run_dir / "config.in.json").write_text(json.dumps(config), encoding="utf-8")
    code, out, err, peak = _hsikit(tree, ["run", "--config", "config.in.json"], run_dir)
    if code != 0:
        return f"exit {code}: {(out + err).strip()}", peak
    return {name: run_dir / config["output"] / name for name in ARTIFACTS}, peak


def compare_tree(tree: Path, run_a: Path, run_b: Path) -> tuple:
    """(exit code, output) of ``hsikit compare --json run_a run_b`` with
    ``tree``'s sources; the output is stdout, or stdout and stderr if
    the command failed."""
    code, out, err, _ = _hsikit(tree, ["compare", "--json", str(run_a), str(run_b)], run_a)
    return code, ((out + err).strip() if code else out)


def _leaves(node, path=()):
    """(path, value) of each leaf of a JSON document; a path holds the
    object keys and list indices that lead to the leaf."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _leaves(child, path + (index,))
    else:
        yield path, node


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def describe(artifact: str, base: bytes, head: bytes) -> list:
    """The report lines of a JSON artifact whose bytes differ: for each
    generalized path, its differing leaves and the largest |delta| of the
    numeric ones, a leaf that one side lacks or whose type differs
    counting as differing; for ``predictions.json``, how many
    ``predicted`` entries changed."""
    docs = json.loads(base), json.loads(head)
    left, right = (dict(_leaves(doc)) for doc in docs)
    found, missing = {}, object()
    for path in left.keys() | right.keys():
        a, b = left.get(path, missing), right.get(path, missing)
        if type(a) is type(b) and a == b:
            continue
        key = "".join("[*]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")
        count, delta = found.get(key, (0, None))
        if _number(a) and _number(b):
            delta = max(delta or 0.0, abs(a - b))
        found[key] = (count + 1, delta)
    lines = []
    for key, (count, delta) in sorted(found.items()):
        largest = "" if delta is None else f", largest |delta| {delta:.6g}"
        lines.append(f"{key}: leaves differing {count}{largest}")
    if artifact == "predictions.json":
        a, b = (doc["predicted"] for doc in docs)
        changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
        lines.append(f"predicted: {changed} of {len(b)} entries changed")
    return lines


def compare(base: Path, head: Path, scenes: dict, work: Path, seeds=SEEDS) -> list:
    """(workload, seed, artifact, same, report lines) for each workload
    and seed: first a ``peak RSS`` row that only reports, ``same`` None
    and one line with both runs' peak RSS; then a row for each
    deterministic artifact of each run, then for ``compare --json`` (see
    :func:`compare_tree`) over the two runs with each tree's sources; the
    report lines are those of :func:`describe` for a JSON artifact or
    compare output that differs, or each failed compare's exit code and
    output, else empty.
    ``scenes`` maps a workload name to (scene directory, config minus
    cube, ground_truth, output and seed). A failed run gives one row for
    its workload and seed, after the peak RSS, not same, whose
    ``artifact`` is the failure."""
    rows = []
    for name, (scene_dir, config) in scenes.items():
        for seed in seeds:
            full = {
                "cube": str(scene_dir / "scene.hsih"),
                "ground_truth": str(scene_dir / "scene_gt.hsih"),
                "output": "out",
                "seed": seed,
                **config,
            }
            dirs = [work / side / name / f"seed{seed}" for side in ("base", "head")]
            runs, peaks = zip(*(run_tree(tree, full, run_dir)
                                for tree, run_dir in zip((base, head), dirs)))
            rows.append((name, seed, "peak RSS", None,
                         ["base {}, head {}".format(*peaks)]))
            failed = [run for run in runs if isinstance(run, str)]
            if failed:
                rows.append((name, seed, "; ".join(failed), False, []))
                continue
            for key in ARTIFACTS:
                paths = runs[0][key], runs[1][key]
                same = filecmp.cmp(*paths, shallow=False)
                plain = same or not key.endswith(".json")
                report = [] if plain else describe(key, *(path.read_bytes() for path in paths))
                rows.append((name, seed, key, same, report))
            run_dirs = [run_dir / full["output"] for run_dir in dirs]
            outputs = [compare_tree(tree, *run_dirs) for tree in (base, head)]
            failed = [
                f"{side}: exit {code}: {out}"
                for side, (code, out) in zip(("base", "head"), outputs)
                if code
            ]
            same = not failed and outputs[0] == outputs[1]
            report = failed or ([] if same else describe("compare", outputs[0][1], outputs[1][1]))
            rows.append((name, seed, "compare --json", same, report))
    return rows


def print_rows(rows: list) -> None:
    """Print each row of :func:`compare`: its workload, seed, artifact
    and verdict, ``same``, ``differs`` or ``report`` for a row that only
    reports, then its report lines, indented."""
    verdicts = {True: "same", False: "differs", None: "report"}
    for name, seed, artifact, same, report in rows:
        print(f"{name:<12} seed {seed}  {artifact:<18} {verdicts[same]}")
        for line in report:
            print(f"    {line}")


def messages(base: Path, head: Path, scene_dir: Path, work: Path, cases=CASES) -> list:
    """(case, same, report lines) for each case of ``cases``: the command
    the case names, run with each tree's sources in the case's own
    directory, is ``same`` when both exit with the same code and print
    the same stderr; else the report lines give each side's exit code
    and stderr. A case writes its inputs there from ``scene_dir``, which
    holds ``scene.hsih`` and ``scene_gt.hsih``, and from a good run of
    that scene made with ``base``'s sources; every path it names is
    relative, so both trees print the same path."""
    config = {"cube": str(scene_dir / "scene.hsih"),
              "ground_truth": str(scene_dir / "scene_gt.hsih"), "output": "out"}
    good, _ = run_tree(base, config, work / "good")
    if isinstance(good, str):
        raise RuntimeError(f"the good run failed: {good}")
    rows = []
    for name, make in cases.items():
        case = work / name.replace(" ", "-")
        case.mkdir()
        argv = make(case, scene_dir, work / "good" / "out")
        runs = [_hsikit(tree, argv, case) for tree in (base, head)]
        outputs = [(code, err.strip()) for code, _, err, _ in runs]
        same = outputs[0] == outputs[1]
        report = [] if same else [
            f"{side}: exit {code}: {err}" for side, (code, err) in zip(("base", "here"), outputs)
        ]
        rows.append((name, same, report))
    return rows


def _workloads(tree: Path) -> dict:
    spec = importlib.util.spec_from_file_location(
        "base_workloads", tree / "hsibench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _export(commit: str, into: Path) -> None:
    archive = subprocess.check_output(["git", "-C", str(ROOT), "archive", "--format=tar", commit])
    into.mkdir()
    subprocess.check_output(["tar", "-x", "-C", str(into)], input=archive)


def _module_lines(tree: Path) -> dict:
    root = tree / "src" / "hsikit"
    return {str(path.relative_to(root)): code_lines(path) for path in root.rglob("*.py")}


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tools/artifact_diff.py BASE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        work = Path(tmp)
        base = work / "base_tree"
        _export(argv[0], base)
        scenes = {}
        for name, workload in _workloads(base).items():
            scene_dir = work / "scenes" / name
            scene_dir.mkdir(parents=True)
            subprocess.check_call(
                [sys.executable, str(base / "hsibench" / "scene.py"), name, str(scene_dir)],
                env=_env(base),
            )
            scenes[name] = (scene_dir, workload.config)
        for name, config in UNREDUCED.items():
            scenes[name] = (scenes["svm-grid"][0], config)
        rows = compare(base, ROOT, scenes, work / "runs")
        print_rows(rows)
        first_scene = next(iter(scenes.values()))[0]
        print(f"messages of hsikit run, compare and convert, at {argv[0]} and here:")
        for name, same, report in messages(base, ROOT, first_scene, work / "messages"):
            print(f"{name:<22} {'same' if same else 'differs'}")
            for line in report:
                print(f"    {line}")
        counts = _module_lines(base), _module_lines(ROOT)
        print(f"code lines of src/hsikit, at {argv[0]} and here:")
        for module in sorted(counts[0].keys() | counts[1].keys()):
            print(f"{counts[0].get(module, '-'):>6} {counts[1].get(module, '-'):>6}  {module}")
        print(f"{sum(counts[0].values()):>6} {sum(counts[1].values()):>6}  total")
    return 0 if all(same is not False for _, _, _, same, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

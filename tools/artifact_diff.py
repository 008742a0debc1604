"""Compare the artifacts of two source trees, byte for byte.

    python tools/artifact_diff.py BASE

exports the commit BASE with ``git archive`` into a temporary directory,
makes each benchmark workload's scene once with BASE's
``hsibench/scene.py``, and runs ``python -m hsikit run --config`` on each
scene with BASE's sources and with the sources of this checkout, at run
seeds 1 and 2, with one OpenBLAS/OMP thread and the same config, relative
``output`` included. The workloads and their configs are BASE's
``hsibench/workloads.py``. It prints one line per deterministic artifact
(every artifact but ``timings.json``), ``same`` or ``differs``, then the
code lines of both trees' ``src/hsikit`` as ``tools/code_lines.py``
counts them, and exits 1 if any artifact differs or any run fails.

Nothing is written into the checkout: the runs work in the temporary
directory, and Python writes no bytecode.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from code_lines import code_lines

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
ARTIFACTS = ("config.json", "report.json", "predictions.json", "model.json", "map.ppm")


def _env(tree: Path) -> dict:
    return dict(
        os.environ,
        PYTHONPATH=str(tree / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )


def run_tree(tree: Path, config: dict, run_dir: Path):
    """The artifacts of ``hsikit run`` with ``tree``'s sources in
    ``run_dir``, as {name: bytes}, or the run's output if it failed."""
    run_dir.mkdir(parents=True)
    (run_dir / "config.in.json").write_text(json.dumps(config), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "hsikit", "run", "--config", "config.in.json"],
        cwd=run_dir,
        env=_env(tree),
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        return f"exit {done.returncode}: {(done.stdout + done.stderr).strip()}"
    return {name: (run_dir / config["output"] / name).read_bytes() for name in ARTIFACTS}


def compare(base: Path, head: Path, scenes: dict, work: Path, seeds=SEEDS) -> list:
    """(workload, seed, artifact, same) for each deterministic artifact of
    each run; ``scenes`` maps a workload name to (scene directory, config
    minus cube, ground_truth, output and seed). A failed run gives one
    row for its workload and seed, not same, whose ``artifact`` is the
    failure."""
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
            runs = [
                run_tree(tree, full, work / side / name / f"seed{seed}")
                for side, tree in (("base", base), ("head", head))
            ]
            failed = [run for run in runs if isinstance(run, str)]
            if failed:
                rows.append((name, seed, "; ".join(failed), False))
                continue
            rows.extend((name, seed, key, runs[0][key] == runs[1][key]) for key in ARTIFACTS)
    return rows


def _workloads(tree: Path) -> dict:
    spec = importlib.util.spec_from_file_location(
        "base_workloads", tree / "hsibench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _export(commit: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        stdout=subprocess.PIPE,
        check=True,
    ).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _total(tree: Path) -> int:
    return sum(code_lines(path) for path in (tree / "src" / "hsikit").rglob("*.py"))


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
            subprocess.run(
                [sys.executable, str(base / "hsibench" / "scene.py"), name, str(scene_dir)],
                env=_env(base),
                check=True,
            )
            scenes[name] = (scene_dir, workload.config)
        rows = compare(base, ROOT, scenes, work / "runs")
        for name, seed, artifact, same in rows:
            print(f"{name:<12} seed {seed}  {artifact:<18} {'same' if same else 'differs'}")
        print(f"code lines of src/hsikit: {_total(base)} at {argv[0]}, {_total(ROOT)} here")
    return 0 if all(same for *_, same in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

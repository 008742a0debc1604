"""hsikit benchmark: `hsikit run` end to end on fixed synthetic scenes.

    python3 hsibench/run.py --workload svm-grid --seed 1 --seconds 30 --trace 0

Run it from the repository root; it uses the package under src/ and keeps
its scratch files in .hsibench_work/. Every hsikit process gets a fixed
BLAS thread count. A run first sets up the workload's scene in fresh
processes, then:

--trace 0  runs `python -m hsikit run` closed loop, one process at a time,
           a fixed number of times, checks every run's outputs and reports
           the end-to-end metrics of BENCHMARK.json.
--trace 1  runs the same config once untraced and once traced in-process
           (see pipeline.py) and reports the per-layer metrics.

It prints the environment, every metric with its unit, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from pipeline import COMPUTED, COUNTED
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".hsibench_work"

ARTIFACTS = (
    "config.json",
    "report.json",
    "predictions.json",
    "model.json",
    "map.ppm",
    "timings.json",
)
DETERMINISTIC = ARTIFACTS[:-1]  # all but timings.json must repeat byte for byte

# One BLAS thread, at most nproc anywhere: model.json depends on the thread
# count, and one thread spreads least between runs.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # the whole run, set-up included


@dataclass
class Child:
    code: int
    seconds: float
    peak_rss_mb: float


def run_child(argv, cwd: Path, log: Path, deadline: float) -> Child:
    """Run one process to completion, timed from launch to exit.

    The peak resident set comes from this child's own rusage. A child
    still running at ``deadline`` (a perf_counter time) is killed and
    reported as failed; none is started after it.
    """
    start = time.perf_counter()
    if start >= deadline:
        return Child(code=-1, seconds=0.0, peak_rss_mb=0.0)
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=out,
            stderr=subprocess.STDOUT,
        )
    timer = threading.Timer(deadline - start, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_bytes()[-2000:].decode("utf-8", "replace")
        print(f"{' '.join(map(str, argv))} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return Child(code=proc.returncode, seconds=seconds, peak_rss_mb=usage.ru_maxrss / 1024.0)


def set_up(workload, work: Path, deadline: float, repeats: int) -> list:
    """Generate and save the scene ``repeats`` times; returns the times."""
    times = []
    for i in range(repeats):
        child = run_child(
            [sys.executable, str(BENCH_DIR / "scene.py"), workload.name, str(work)],
            work,
            work / f"setup{i}.log",
            deadline,
        )
        if child.code != 0:
            sys.exit(f"set-up of {workload.name} failed (exit {child.code})")
        times.append(child.seconds)
    return times


def check_outputs(out_dir: Path, workload) -> tuple:
    """Returns (problems, overall accuracy or None, {artifact: sha256})."""
    problems = [f"{name} missing" for name in ARTIFACTS if not (out_dir / name).is_file()]
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in DETERMINISTIC
        if (out_dir / name).is_file()
    }
    accuracy = None
    if (out_dir / "report.json").is_file():
        try:
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            accuracy = float(report["evaluation"]["overall_accuracy"])
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"report.json unreadable ({exc!r})")
        else:
            if accuracy < workload.accuracy_floor:
                problems.append(f"overall_accuracy {accuracy} below {workload.accuracy_floor}")
    return problems, accuracy, digests


def artifact_bytes(out_dir: Path) -> int:
    return sum((out_dir / name).stat().st_size for name in DETERMINISTIC)


def model_counters(out_dir: Path) -> dict:
    """Counted metrics that model.json records, to compare with the trace."""
    model = json.loads((out_dir / "model.json").read_text(encoding="utf-8"))["classifier"]
    if model["kind"] == "svm":
        machines = model["model"]["machines"]
        return {
            "svm.smo_iterations": sum(m["n_iter"] for m in machines),
            "svm.support_vectors": sum(len(m["dual_coef"]) for m in machines),
            "svm.pairs_unconverged": sum(not m["converged"] for m in machines),
        }
    trees = [tree for round_trees in model["model"]["trees"] for tree in round_trees]
    return {
        "gbdt.trees": len(trees),
        "gbdt.leaves": sum(tree["feature"].count(-1) for tree in trees),
    }


def timed_runs(workload, work: Path, config: Path, reps: int, deadline: float) -> tuple:
    """Closed loop of `hsikit run` processes; returns (children, failed, accuracy)."""
    out_dir = work / "out"
    children, failed, accuracy, reference = [], 0, None, None
    for i in range(reps):
        shutil.rmtree(out_dir, ignore_errors=True)
        child = run_child(
            [sys.executable, "-m", "hsikit", "run", "--config", str(config)],
            work,
            work / f"run{i}.log",
            deadline,
        )
        problems, rep_accuracy, digests = check_outputs(out_dir, workload)
        if child.code != 0:
            problems.append(f"exit code {child.code}")
        if not problems:
            reference = reference or digests
            problems = [
                f"{name} differs from the first run"
                for name in DETERMINISTIC
                if digests[name] != reference[name]
            ]
        if problems:
            failed += 1
            print(f"run {i} failed: {'; '.join(problems)}", file=sys.stderr)
        if child.seconds > 0:
            children.append(child)
        accuracy = accuracy if accuracy is not None else rep_accuracy
    return children, failed, accuracy


def traced_runs(workload, work: Path, config: Path, deadline: float) -> tuple:
    """One untraced and one traced in-process run; returns (metrics, failed)."""
    out_dir = work / "out"
    results, problems = {}, {}
    for mode in ("plain", "traced"):
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path = work / f"{mode}.json"
        child = run_child(
            [sys.executable, str(BENCH_DIR / "pipeline.py"), mode, str(config), str(result_path)],
            work,
            work / f"{mode}.log",
            deadline,
        )
        problems[mode], _, digests = check_outputs(out_dir, workload)
        if child.code != 0:
            problems[mode].append(f"exit code {child.code}")
        if problems[mode]:
            continue
        try:
            model = model_counters(out_dir)
        except (ValueError, KeyError, TypeError) as exc:
            problems[mode].append(f"model.json unreadable ({exc!r})")
            continue
        results[mode] = json.loads(result_path.read_text(encoding="utf-8"))
        results[mode].update(digests=digests, artifact_bytes=artifact_bytes(out_dir), model=model)
    if len(results) == 2:
        plain, traced = results["plain"], results["traced"]
        metrics = dict(traced["metrics"])
        metrics["cli.artifact_bytes"] = traced["artifact_bytes"]
        metrics["trace.overhead_s"] = traced["pipeline_s"] - plain["pipeline_s"]
        # Tracing must not change the outputs, and the counters must repeat
        # exactly: across the two traced calls, and against what the untraced
        # run's model.json and artifacts record.
        problems["traced"] += [
            f"{name} differs from the untraced run"
            for name in DETERMINISTIC
            if traced["digests"][name] != plain["digests"][name]
        ]
        expected = traced["repeat"] | plain["model"]
        expected["cli.artifact_bytes"] = plain["artifact_bytes"]
        problems["traced"] += [
            f"counter {name} {metrics[name]} does not repeat ({value})"
            for name, value in expected.items()
            if metrics[name] != value
        ]
    else:
        metrics = None
    for mode, found in problems.items():
        if found:
            print(f"{mode} run failed: {'; '.join(found)}", file=sys.stderr)
    return metrics, sum(bool(found) for found in problems.values())


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": commit,
    }


def load_metric_specs(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def kind_of(name: str) -> str:
    if name in COUNTED or name == "cli.artifact_bytes":
        return "counted"
    if name in COMPUTED:
        return "computed"
    return "measured"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="the hsikit run's seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hsikit" / "__init__.py").is_file():
        sys.exit(f"no hsikit sources at {SRC}; run from a checkout of the repository")
    specs = load_metric_specs(bool(args.trace))
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    # A terminated benchmark still kills and reaps the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.in.json"
    config.write_text(
        json.dumps(
            {
                "cube": "scene.hsih",
                "ground_truth": "scene_gt.hsih",
                "output": "out",
                "seed": args.seed,
                **workload.config,
            }
        ),
        encoding="utf-8",
    )
    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")

    if args.trace:
        print(f"meant to move: {workload.moves}")
        set_up(workload, work, deadline, repeats=1)
        attempted = 2
        metrics, failed = traced_runs(workload, work, config, deadline)
        if metrics is None:
            metrics = {spec["name"]: 0.0 for spec in specs}
    else:
        setup_times = set_up(workload, work, deadline, SETUP_REPEATS)
        attempted = workload.repetitions(args.seconds)
        children, failed, accuracy = timed_runs(workload, work, config, attempted, deadline)
        metrics = {
            "run_s": statistics.median(c.seconds for c in children) if children else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children) if children else 0.0,
            "overall_accuracy": accuracy or 0.0,
            # Laplace's rule of succession, (failed + 1) / (attempted + 2): never
            # 0, and with `attempted` fixed per workload any failure raises it.
            "error_rate": (failed + 1) / (attempted + 2),
        }
        print(f"{attempted} timed runs, {failed} failed")
        print(f"set-up times {[round(t, 4) for t in setup_times]} s")
        print(f"run times {[round(c.seconds, 4) for c in children]} s")

    if set(metrics) != {spec["name"] for spec in specs}:
        sys.exit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    for spec in specs:
        note = f" ({kind_of(spec['name'])})" if args.trace else ""
        print(f"{spec['name']:<28} {metrics[spec['name']]:>16.6g} {spec['unit']}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }
    (work / "result.json").write_text(
        json.dumps(dict(result, env=env), indent=2), encoding="utf-8"
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()

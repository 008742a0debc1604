"""Run the benchmark over several seeds and summarize it as one JSON file.

    python3 hsibench/collect.py --seeds 1-10 --output .hsibench_work/before.json
    python3 hsibench/collect.py --seeds 3 --trace 1 --workloads pavia-gbdt

Each (workload, seed) is one `run.py` process, run one after another.
The summary gives, per workload and metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median. Two such files,
from the parent commit and from a change, are what a performance claim
compares. baseline_end_to_end.json and baseline_per_layer.json in this
directory were written by this script.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(values: list) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--output", help="write the JSON here as well as to stdout")
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workloads == "all" else args.workloads.split(",")

    doc = {"seconds": args.seconds, "trace": args.trace, "env": None, "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True,
                text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            doc["env"] = json.loads(lines[0].removeprefix("env "))
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result})
            print(
                f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}",
                file=sys.stderr,
            )
        summary = {}
        for metric, spec in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = dict(summarize(values), unit=spec["unit"])
        doc["workloads"][name] = {"runs": runs, "summary": summary}
    text = json.dumps(doc, indent=1)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    print(text)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--json FILE]

Runs perfbench/run.py once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, per metric, the median and the interquartile
range as a share of the median (statistics.quantiles(values, n=4)), next
to the metric's bound. A spread at or above a third of its bound is
flagged. --json appends the raw values and summary to FILE.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json")
    args = parser.parse_args()

    values = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: FAILED\n{done.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    summary = {}
    for metric in SPEC["end_to_end"] if len(values["job_s"]) > 1 else []:
        series = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[metric["name"]] = {"median": median, "spread": spread,
                                   "bound": metric["bound"]}
        flag = "" if spread < metric["bound"] / 3 else "  <-- >= bound/3"
        print(f"{metric['name']:>14}  median {median:14.6g}  "
              f"spread {spread:7.4f}  bound {metric['bound']}{flag}")
    if args.json:
        with open(args.json, "a") as out:
            out.write(json.dumps({"workload": args.workload,
                                  "seeds": parse_seeds(args.seeds),
                                  "values": values,
                                  "summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a small size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py with
--size small, once untraced and once traced, and asserts that the last
line is a passing result that prints exactly the end-to-end (resp.
per-layer) metrics BENCHMARK.json names, with their units, and that the
traced run wrote a trace whose job spans have exactly the layer children
that workload's jobs reach. It then runs once against a deliberately
wrong reference triangle count and asserts the run reports every job as
failed and exits nonzero. Exit code 0 when every assertion holds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--size", "small", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def check_result(workload, trace, code, result, stderr):
    label = f"{workload} --trace {trace}"
    check(code == 0, f"{label}: exit {code}\n{stderr}")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{label}: not correct: {result}")
    check(result["attempted"] >= 1, f"{label}: attempted < 1")
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == wanted, f"{label}: metrics differ from BENCHMARK.json: "
          f"missing {sorted(set(wanted) - set(got))}, "
          f"unexpected {sorted(set(got) - set(wanted))}, units {got}")
    for name, metric in result["metrics"].items():
        check(isinstance(metric["value"], (int, float)),
              f"{label}: {name} is not a number")


# Layer spans expected directly under each job span, per workload; a layer
# the workload's jobs never reach is not replayed and must be absent.
ALWAYS = {"strategy.run", "graph.intersect", "mapreduce.replay"}
KERNELS = {"graph.subgraph", "core.project", "cq.evaluate"}
TRANSPORT = {"mapreduce.replay_inmem", "mapreduce.codec"}
JOB_CHILDREN = {
    "tri-bucket-er": ALWAYS | KERNELS,
    "tri-census-pa": ALWAYS,
    "tri-bucket-ooc": ALWAYS | KERNELS | TRANSPORT,
}


def check_trace(workload, path):
    events = json.loads(Path(path).read_text())["traceEvents"]
    jobs = {e["args"]["id"] for e in events if e["name"] == "job"}
    check(jobs, f"{path}: no job spans")
    children = {e["name"] for e in events if e["args"]["parent"] in jobs}
    wanted = JOB_CHILDREN[workload]
    check(children == wanted, f"{path}: layer spans under a job are "
          f"{sorted(children)}, expected {sorted(wanted)}")
    if TRANSPORT <= wanted:
        names = {e["name"] for e in events}
        for span in ("mapreduce.spill_write", "mapreduce.spill_read"):
            check(span in names, f"{path}: no {span} span")


def main():
    traces = ROOT / ".bench_build" / "selftest"
    traces.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0, *run(workload, 0))
        trace_file = str(traces / f"{workload}.json")
        check_result(workload, 1, *run(workload, 1, "--trace-out", trace_file))
        check_trace(workload, trace_file)
        print(f"ok   {workload}")
    workload = SPEC["workloads"][0]["name"]
    code, result, _ = run(workload, 0, "--corrupt-reference")
    check(code != 0, "a wrong reference count still exited 0")
    check(result is not None and result["correct"] is False and
          result["failed"] == result["attempted"] >= 1,
          f"a wrong reference count was not reported as failures: {result}")
    print(f"ok   {workload} --corrupt-reference fails every job")
    return 0


if __name__ == "__main__":
    sys.exit(main())

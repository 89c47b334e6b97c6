#!/usr/bin/env python3
"""Builds and runs the repository benchmark from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the smr library from src/ plus perfbench_runner) in Release
mode under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs only re-check the build. The runner's stdout is passed through
unchanged: its last line is the JSON result. Spill files go to
<build root>/tmp. With --trace 1 the span trace is written to
<build root>/traces/<workload>-seed<N>.json as Chrome trace-event JSON
unless --trace-out is given.

Extra flags (--size small, --corrupt-reference) go to the runner; the
self-test (perfbench/selftest.py) uses them. Exit code: the runner's (0 =
every output check passed), or 2 when the checkout cannot be built.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNNER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def cached_source_dir(cache):
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1].strip()
    return None


def run_logged(command, log):
    with open(log, "ab") as out:
        return subprocess.run(command, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode


def build(directory):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no smr sources under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    cache = directory / "CMakeCache.txt"
    # A build tree configured for another checkout cannot be reused.
    if cache.is_file() and cached_source_dir(cache) != str(HERE):
        shutil.rmtree(directory)
    directory.mkdir(parents=True, exist_ok=True)
    log = directory / "build.log"
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(directory),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", str(directory), "-j", jobs])
    for command in steps:
        if run_logged(command, log) != 0:
            tail = log.read_text(errors="replace").splitlines()[-40:]
            print("\n".join(tail), file=sys.stderr)
            fail(f"build failed: {' '.join(command)} (log: {log})")
    runner = directory / "perfbench_runner"
    if not runner.is_file():
        fail(f"build produced no {runner}")
    return runner


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="workload")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--trace-out")
    known, _ = parser.parse_known_args()

    directory = build_dir()
    runner = build(directory)
    command = [str(runner), *sys.argv[1:]]
    if known.trace == "1" and known.trace_out is None:
        traces = directory / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{known.workload}-seed{known.seed}.json")]
    # Spill files (unlinked at creation) stay inside the checkout.
    spill_dir = directory / "tmp"
    spill_dir.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(spill_dir))
    sys.stdout.flush()
    # Own process group, so a timeout also stops the runner's forked
    # workers.
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               start_new_session=True)
    try:
        return process.wait(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s and was killed")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()


if __name__ == "__main__":
    sys.exit(main())

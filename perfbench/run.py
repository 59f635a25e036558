#!/usr/bin/env python3
"""Build and run the BranchLab benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (an optimized build that compiles the library from src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls only rebuild what changed. The run
itself happens in a fresh scratch directory under the build directory,
removed afterwards, so every workload starts from empty stores.

The last line of standard output is the run's JSON result. Its
metrics are exactly the ones BENCHMARK.json lists for the mode:
end_to_end with --trace 0, per_layer with --trace 1. A per-layer metric
the workload does not exercise reads 0. A reported metric whose name or
unit BENCHMARK.json does not list is an error. Without a result (build
failure, crash, timeout, unlisted metric) the script exits non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tables", "sweep", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(message, log=None):
    print(f"perfbench: {message}", file=sys.stderr)
    if log and os.path.exists(log):
        with open(log, errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed", log)
    return os.path.join(build_dir, "blab_perf")


def declared(trace):
    """The metrics BENCHMARK.json lists for the mode: name -> unit."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def conform(result, trace):
    """Check the result's metrics against BENCHMARK.json's list for the
    mode and report them in its order. A per-layer metric the workload
    does not exercise reads 0."""
    want = declared(trace)
    got = result["metrics"]
    for name, metric in got.items():
        if want.get(name) != metric["unit"]:
            fail(f"metric {name} ({metric['unit']}) is not listed in "
                 "BENCHMARK.json with that unit")
    missing = [name for name in want if name not in got]
    if missing and not trace:
        fail(f"end-to-end metrics missing: {', '.join(missing)}")
    result["metrics"] = {
        name: got.get(name, {"value": 0, "unit": unit})
        for name, unit in want.items()}
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    binary = build(build_dir)

    work = os.path.join(build_dir, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=work, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}")
    result = conform(json.loads(lines[-1]), args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds into
.bench_build/ (a few minutes); later runs only check the build is current.
Build output goes to stderr. The binary prints its own measurements, then
this script prints, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics, where metrics holds every
end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer metric
(--trace 1). A per_layer metric the workload does not exercise reads 0.
Exits non-zero, without that line, when the build, the run or a
correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170  # a run must end within 180 s; the build is not counted


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing; run from a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, *generator,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    # The program reads ALAMR_* knobs (thread count, quick mode, tracing,
    # fault plans, SIMD level); the benchmark always runs the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALAMR_")}
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"{args.workload} exited with code {proc.returncode}")

    measured = json.loads(lines[-1])
    if not measured["correct"] or measured["failures"]:
        fail("correctness checks failed: " + "; ".join(measured["failures"]))
    metrics = {}
    for spec in declared(args.trace):
        name, unit = spec["name"], spec["unit"]
        got = measured["metrics"].get(name)
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not measure {name}")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name}: measured in {got['unit']}, declared in {unit}")
        if not isinstance(got["value"], (int, float)):
            fail(f"{name}: no finite value")
        metrics[name] = {"value": got["value"], "unit": unit}
    print(json.dumps({"correct": True, "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

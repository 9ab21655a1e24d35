#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the Vista libraries from src/ plus the benchmark binary,
Release) under .bench_build/perfbench; later runs only rebuild what changed.
Build output goes to stderr, the report to stdout, and the last stdout line
is the JSON verdict {"correct", "attempted", "failed", "metrics"}. The exit
code is
non-zero when the build fails, an output check fails, or the printed metric
names disagree with BENCHMARK.json. Traced runs (--trace 1) also write their
spans to .bench_build/traces/<workload>-seed<n>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vista_perfbench")
WORKLOADS = ["transfer-resnet50-lr", "premat-spill-alexnet", "serve-zipf-open"]
RUN_TIMEOUT_S = 170


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            sys.stderr.write(f"perfbench: cannot run {cmd[0]}: {err}\n")
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
            return False
    return True


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, verdict dict or None)."""
    scratch = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--scratch", scratch]
    if trace:
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {workload} timed out\n")
        return 1, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        verdict = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        sys.stderr.write(f"perfbench: {workload} printed no verdict "
                         f"(exit {done.returncode})\n")
        return done.returncode or 1, None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    # Every workload prints every declared metric of its mode, in its unit.
    spec = benchmark_spec()
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = verdict["metrics"]
    unknown = sorted(set(printed) - set(declared))
    missing = sorted(set(declared) - set(printed))
    wrong_unit = sorted(name for name, m in printed.items()
                        if name in declared and m["unit"] != declared[name])
    if unknown or missing or wrong_unit:
        sys.stdout.write(f"# CHECK FAILED: metrics disagree with "
                         f"BENCHMARK.json: unknown {unknown}, missing "
                         f"{missing}, wrong unit {wrong_unit}\n")
        verdict["correct"] = False
    code = done.returncode if verdict["correct"] else (done.returncode or 1)
    return code, verdict


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: BENCHMARK.json "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]

    if not build():
        return 1
    if args.workload != "all":
        code, verdict = run_one(args.workload, args.seed, args.seconds,
                                args.trace)
        if verdict is not None:
            print(json.dumps(verdict))
        return code

    # Every workload in turn; the verdict merges them, metric names prefixed
    # by workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print(f"## {workload}")
        code, verdict = run_one(workload, args.seed, args.seconds, args.trace)
        worst = worst or code
        if verdict is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and verdict["correct"]
        merged["attempted"] += verdict["attempted"]
        merged["failed"] += verdict["failed"]
        for name, metric in verdict["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())

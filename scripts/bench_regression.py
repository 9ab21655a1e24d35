#!/usr/bin/env python3
"""Bench regression gate.

Compares a fresh smoke-bench report (BENCH_smoke_kernels.json,
BENCH_smoke_shuffle.json, ...) against its committed baseline and fails
when a tracked metric regresses by more than the tolerance (default 25%).
The report's "bench" id selects which metrics are gated and which
baseline file is used, so one script serves every bench.

Only machine-independent *ratio* metrics are compared — speedups,
efficiency, throughput ratios — never raw milliseconds: CI runners
differ wildly in clock speed and core count, so absolute timings would
gate on the hardware lottery instead of the code. Raw latencies from
both files are printed for humans.

Usage:
    scripts/bench_regression.py CURRENT.json [--baseline PATH]
                                [--tolerance 0.25] [--update]

On the first run (no baseline file) the current report is written as the
baseline and the gate passes; commit the generated file. `--update`
forces rewriting the baseline.
"""

import argparse
import json
import os
import sys

BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench",
    "baselines")

# Per-bench gate configuration, keyed on the report's "bench" id.
# "tracked" metrics gate the build (higher is better for all of them);
# "informational" metrics are printed but never gated (machine-dependent).
BENCHES = {
    "micro_kernels": {
        "baseline": "bench_kernels_baseline.json",
        "tracked": [
            ("gemm_256x1152x196", "speedup"),
            # Quantized kernel throughput relative to the fp32 packed
            # kernel on the same shape, and its accuracy bound (a 0/1
            # indicator: the dequantized product's relative L2 error
            # against the fp32 product must stay within the bound, so any
            # accuracy break fails the gate outright).
            ("gemm_int8_256x1152x196", "speedup_vs_fp32"),
            ("gemm_int8_256x1152x196", "accuracy_within_bound"),
            # Implicit-GEMM conv (fp32 and int8) on a 64x112x112 3x3
            # conv: its throughput over the packed GEMM's on the
            # 256x1152x196 problem in the same run, on one thread, and the
            # bit-identity indicator (0/1: the output must equal the packed
            # GEMM over the materialized expansion exactly, so any
            # divergence fails the gate outright). implicit_gemm_test
            # pins the conv's scratch footprint exactly.
            ("implicit_conv", "conv_efficiency"),
            ("implicit_conv", "bit_identical"),
            ("implicit_conv_int8", "conv_efficiency"),
            ("implicit_conv_int8", "bit_identical"),
            ("batched_inference", "efficiency_normalized"),
            # Batch-major inference: one-thread RunRangeBatch of 256
            # images through MicroResNet50 conv5_1..fc6 (one GEMM per conv
            # per group of 16) vs 256 one-image RunRange calls, and the
            # 0/1 indicator that every grouped output equals its one-image
            # run byte for byte.
            ("batch_major", "speedup"),
            ("batch_major", "bit_identical"),
            # The downstream featurizer (dl::AppendTransferFeatures) vs a
            # memcpy of the same input floats: at the target resolution
            # (256x2x2, the identity) and pooled (24x3x3).
            ("featurize", "copy_efficiency_256x2x2"),
            ("featurize", "copy_efficiency_24x3x3"),
        ],
        "informational": [
            ("gemm_256x1152x196", "naive_ms"),
            ("gemm_256x1152x196", "packed_ms"),
            ("gemm_256x1152x196", "gflops"),
            ("gemm_int8_256x1152x196", "int8_ms"),
            ("gemm_int8_256x1152x196", "gops"),
            ("gemm_int8_256x1152x196", "rel_l2_error"),
            ("implicit_conv", "implicit_ms"),
            ("implicit_conv", "gflops"),
            ("implicit_conv_int8", "implicit_ms"),
            ("implicit_conv_int8", "gops"),
            ("batched_inference", "serial_ms"),
            ("batched_inference", "parallel_ms"),
            ("batched_inference", "efficiency_raw"),
            ("batch_major", "one_image_ms"),
            ("batch_major", "batched_ms"),
            ("featurize", "featurize_ms_256x2x2"),
            ("featurize", "memcpy_ms_256x2x2"),
            ("featurize", "featurize_ms_24x3x3"),
            ("featurize", "memcpy_ms_24x3x3"),
        ],
    },
    "shuffle": {
        "baseline": "bench_shuffle_baseline.json",
        "tracked": [
            ("shuffle_join", "speedup"),
            ("serialize", "throughput_ratio"),
        ],
        "informational": [
            ("shuffle_join", "serial_ms"),
            ("shuffle_join", "parallel_ms"),
            ("persist_overlap", "sync_reference_ms"),
            ("persist_overlap", "async_persist_ms"),
            ("persist_overlap", "queue_depth_peak"),
            ("determinism", "bit_identical"),
        ],
    },
    "pipeline": {
        "baseline": "bench_pipeline_baseline.json",
        "tracked": [
            # Pipelined (prefetch depth > 0) vs serial wall-clock on one
            # compute thread with injected read stalls: pure overlap.
            ("pipeline", "overlap_ratio"),
            # The pipeline must never change results: 1 when the
            # materialized features are bit-identical at every depth.
            ("determinism", "bit_identical"),
        ],
        "informational": [
            ("pipeline", "serial_ms"),
            ("pipeline", "pipelined_ms"),
            ("pipeline", "delay_ms"),
            ("prefetch", "requests"),
            ("prefetch", "hits"),
            ("prefetch", "queue_depth_peak"),
        ],
    },
    "fig10_physical_plans": {
        "baseline": "bench_fig10_baseline.json",
        "tracked": [
            # The simulator's crash decisions are pure functions of the
            # sweep setup, so the fraction of physical configs that
            # complete is exactly reproducible.
            ("summary", "completed_fraction"),
        ],
        "informational": [
            ("summary", "configs"),
            ("summary", "completed"),
            ("summary", "crashed"),
            ("summary", "errors"),
        ],
    },
    "service": {
        "baseline": "bench_service_baseline.json",
        "tracked": [
            # Exact FLOP accounting: how much CNN work the warm query skips
            # by resuming from the shared view cache.
            ("cross_query", "flops_ratio"),
            # Deterministic after the warming query: every concurrent query
            # must hit the view cache.
            ("throughput", "cache_hit_rate"),
        ],
        "informational": [
            ("cross_query", "cold_ms"),
            ("cross_query", "warm_ms"),
            ("cross_query", "latency_speedup"),
            ("throughput", "qps"),
            ("throughput", "p50_ms"),
            ("throughput", "p99_ms"),
            ("admission", "shed"),
            ("admission", "completed"),
        ],
    },
}


def metric(report, section, key):
    try:
        return float(report["extras"][section][key])
    except (KeyError, TypeError, ValueError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh smoke-bench report")
    parser.add_argument("--baseline", default=None,
                        help="baseline path (default: per-bench file under "
                             "bench/baselines/)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current report")
    args = parser.parse_args()

    with open(args.current) as f:
        current = json.load(f)

    bench_id = current.get("bench")
    if bench_id not in BENCHES:
        print(f"unknown bench id {bench_id!r}; known: "
              f"{sorted(BENCHES)}", file=sys.stderr)
        return 1
    config = BENCHES[bench_id]
    baseline_path = args.baseline or os.path.join(BASELINE_DIR,
                                                  config["baseline"])

    if args.update or not os.path.exists(baseline_path):
        os.makedirs(os.path.dirname(baseline_path), exist_ok=True)
        with open(baseline_path, "w") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline written to {baseline_path}; commit it")
        return 0

    with open(baseline_path) as f:
        baseline = json.load(f)

    print(f"bench: {bench_id}")
    print(f"{'metric':45s} {'baseline':>10s} {'current':>10s} {'ratio':>7s}")
    for section, key in config["informational"]:
        base, cur = (metric(r, section, key) for r in (baseline, current))
        if base is None or cur is None:
            continue
        ratio = cur / base if base else float("inf")
        print(f"  [info] {section}.{key:30s} {base:10.3f} {cur:10.3f} "
              f"{ratio:6.2f}x")

    failures = []
    for section, key in config["tracked"]:
        name = f"{section}.{key}"
        base = metric(baseline, section, key)
        cur = metric(current, section, key)
        if base is None:
            print(f"  [skip] {name}: not in baseline")
            continue
        if cur is None:
            failures.append(f"{name}: missing from current report")
            continue
        floor = base * (1.0 - args.tolerance)
        status = "ok" if cur >= floor else "REGRESSED"
        print(f"  [{status:>4s}] {name:36s} {base:10.3f} {cur:10.3f} "
              f"(floor {floor:.3f})")
        if cur < floor:
            failures.append(
                f"{name}: {cur:.3f} < {floor:.3f} "
                f"({args.tolerance:.0%} below baseline {base:.3f})")

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        print("(if intentional, refresh with --update and commit the "
              "new baseline)", file=sys.stderr)
        return 1
    print("\nbench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

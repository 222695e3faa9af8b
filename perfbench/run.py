#!/usr/bin/env python3
"""Builds and runs the parfact benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Each run configures and builds
perfbench/ (which compiles the library from src/) into the directory named by
$CARGO_TARGET_DIR, default .bench_build: the first run compiles everything,
later runs only check that the build is up to date.
The benchmark program's human-readable lines are passed through; the last line
printed is one JSON object with "correct", "attempted", "failed" and
"metrics" -- the end_to_end metrics of BENCHMARK.json with --trace 0, its
per_layer metrics with --trace 1. The exit code is 0 only when the build, the
run and every correctness check succeeded and every metric BENCHMARK.json
names was measured with its unit.

--tiny (used by perfbench/selfcheck.py) runs the workloads on tiny inputs.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-2d", "refactor-3d", "serve-mix", "dist-3d")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path. Both
    steps are incremental, so runs after the first take about a second."""
    bdir = build_dir / "perfbench"
    cfg = subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(bdir),
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr)
    if cfg.returncode != 0:
        log("cmake configure failed")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(
        ["cmake", "--build", str(bdir), "--parallel", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        log("build failed")
        return None
    return bdir / "parfact_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        log(f"cannot read {spec_path}: {e}")
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1
    scratch = build_dir / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result line from the benchmark (exit {proc.returncode})")
        return 1

    metrics = {}
    missing = []
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not math.isfinite(got["value"])):
            missing.append(f"{m['name']} [{m['unit']}] got {got}")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    for miss in missing:
        log(f"metric missing, not finite, or with another unit: {miss}")
    correct = bool(run["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct and not missing else 1


if __name__ == "__main__":
    sys.exit(main())

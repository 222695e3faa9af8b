#!/usr/bin/env python3
"""Tiny-scale self-check of the parfact benchmark.

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json against the benchmark's format rules, then runs every
workload on tiny inputs through perfbench/run.py, untraced and traced, and
asserts that each run exits 0, reports correct results, and prints every
metric BENCHMARK.json names with its unit -- plus, in the human-readable
lines, the workload-specific metrics listed in WORKLOAD_METRICS. Takes well
under a minute once the benchmark is built.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Workload-specific metrics each run prints (name, unit) before its result
# line, next to the setup_s / peak_rss_mb / failed_ops_frac every run prints.
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB"),
          ("failed_ops_frac", "ratio")]
WORKLOAD_METRICS = {
    "cold-2d": [("cold_solve_p50_s", "s")],
    "refactor-3d": [("refactor_solve_p50_ms", "ms"),
                    ("refactor_solve_p90_ms", "ms")],
    "serve-mix": [("serve_req_per_s", "1/s"), ("serve_solve_p50_ms", "ms"),
                  ("serve_solve_p99_ms", "ms"), ("serve_refac_p50_ms", "ms")],
    "dist-3d": [("dist_makespan_vs", "vs"), ("dist_wall_s", "s")],
}


def check_spec(spec):
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = set()
    for w in spec["workloads"]:
        why = w.get("why", "")
        if set(w) != {"name", "why"} or len(why) > 200 or "\n" in why:
            errors.append(f"bad workload entry {w}")
        if w["name"] not in WORKLOAD_METRICS:
            errors.append(f"unknown workload {w['name']}")
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            if set(m) != keys:
                errors.append(f"{section} entry {m} has keys {sorted(m)}")
            if not NAME.match(m["name"]) or m["name"] in names:
                errors.append(f"bad or repeated metric name {m['name']}")
            names.add(m["name"])
            if (not UNIT.match(m["unit"])
                    or m["better"] not in ("lower", "higher")):
                errors.append(f"bad unit/better in {m}")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"bound out of range in {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s [s, lower] missing from end_to_end")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    return errors


def check_run(spec, workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0 or not lines:
        return [f"{tag}: exit {proc.returncode}"]
    errors = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if (not result["correct"] or result["failed"] != 0
            or result["attempted"] < 1):
        errors.append(f"{tag}: incorrect run {result}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        errors.append(f"{tag}: metric names differ from BENCHMARK.json")
    for m in wanted:
        v = got.get(m["name"])
        if v is None or v["unit"] != m["unit"] or not isinstance(
                v["value"], (int, float)):
            errors.append(f"{tag}: {m['name']} [{m['unit']}] printed as {v}")
    if trace == 0:
        human = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) >= 3 and not line.startswith("#"):
                human[parts[0]] = parts[2]
        for name, unit in COMMON + WORKLOAD_METRICS[workload]:
            if human.get(name) != unit:
                errors.append(f"{tag}: {name} [{unit}] not printed")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs = check_run(spec, w["name"], trace)
            print(f"{w['name']} trace={trace}: {'ok' if not errs else 'FAIL'}")
            errors += errs
    for e in errors:
        print(f"selfcheck: {e}", file=sys.stderr)
    print("selfcheck", "FAILED" if errors else "OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

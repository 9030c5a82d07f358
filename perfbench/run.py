#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark package in this directory (Release, from the
repository's own sources) and runs one workload:

    python3 perfbench/run.py --workload identical_ladder --seed 1 --seconds 2 --trace 0

The last stdout line is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json (end_to_end with --trace 0, per_layer with
--trace 1), each with its unit. The line before it carries the provenance.

    python3 perfbench/run.py --smoke

runs every workload with tiny durations in both modes and checks that each
metric BENCHMARK.json names is emitted with its unit and that the
correctness gate passes.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "ldp_perfbench"
WORKLOADS = ("root_mix", "identical_ladder", "root_all_tcp")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release", *generator],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return BINARY.exists()


def source_revision():
    """Git commit when available, else a digest of the measured sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_one(spec, workload, seed, seconds, trace):
    """Run the driver binary once; returns (result, provenance)."""
    OUT.mkdir(exist_ok=True)
    cmd = [str(BINARY), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, {"error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, {"error": "no result line (exit %d)" % proc.returncode}

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    correct = bool(raw["correct"]) and proc.returncode == 0
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            if correct:
                log("metric %s missing from the run" % m["name"])
            correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": correct,
        "attempted": max(1, int(raw["attempted"])),
        "failed": int(raw["failed"]) if correct else max(1, int(raw["attempted"])),
        "metrics": metrics if correct else {},
    }
    return result, raw.get("provenance", {})


def smoke(spec):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, prov = run_one(spec, workload, seed=1, seconds=1, trace=trace)
            good = result is not None and result["correct"]
            names = sorted(result["metrics"]) if good else []
            log("smoke %-16s trace=%d: %s (%d metrics)%s" % (
                workload, trace, "ok" if good else "FAILED", len(names),
                "" if good else " " + json.dumps(prov)))
            ok = ok and good
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")

    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        log("refusing to run: %d usable core(s); the server and the replayer "
            "need cores of their own" % cores)
        return 2
    if not build():
        log("build failed")
        return 1
    spec = load_spec()
    if args.smoke:
        return smoke(spec)

    result, prov = run_one(spec, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        log("run failed: %s" % prov.get("error", "unknown"))
        return 1
    prov["revision"] = source_revision()
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

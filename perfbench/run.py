#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shm_bsp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The first call configures and builds perfbench/ (and the ftbar library
sources it compiles from src/) in Release under .bench_build, or under
$CARGO_TARGET_DIR when that is set. Each workload runs in its own process,
so peak_rss_mb is per workload. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones (and a Chrome trace is written under <build>/traces).
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["shm_bsp", "shm_degraded"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no library sources at src/ (run from the root of a checkout)")
        return None
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build step failed: {exc}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def declared_metrics(root, trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec.get(key, [])]


def run_one(binary, root, build_dir, args, workload):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(build_dir, "traces"),
           "--git-sha", git_sha(root)]
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        log(f"{workload}: exit {done.returncode}, no JSON result")
        return done.returncode or 1, None
    declared = declared_metrics(root, args.trace)
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        log(f"{workload}: reported metrics differ from BENCHMARK.json")
        return 1, None
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code, result = 0, None
    for workload in workloads:
        rc, result = run_one(binary, root, build_dir, args, workload)
        if rc != 0 or result is None:
            code = rc or 1
    if result is None:
        return code
    if len(workloads) == 1:
        print(json.dumps(result))
    else:
        print(json.dumps({"correct": code == 0, "workloads": len(workloads)}))
    return code


if __name__ == "__main__":
    sys.exit(main())

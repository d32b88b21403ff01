#!/usr/bin/env python3
"""Build the FixD benchmark from source and run one workload.

    python3 perfbench/run.py --workload investigate|protect|service \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The binary is built with CMake under
$CARGO_TARGET_DIR (default .bench_build); the first run builds it. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json
with --trace 0, its per_layer metrics with --trace 1. Full records (every
metric with its sample count and how it was measured, plus machine and run
metadata) and Chrome traces are written under <build dir>/results.
Exits nonzero, without a result line, if the build fails or a metric is
missing; exits nonzero after the result line if an output check failed.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The commit if this is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "fixd_perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("build failed: %s" % e)

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out", os.path.join(build_dir, "results"),
         "--commit", source_id()],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        full = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        sys.exit("no result from the benchmark binary (exit %d)"
                 % proc.returncode)
    print("\n".join(lines[:-1]))

    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            sys.exit("metric %s missing or malformed" % m["name"])
        metrics[m["name"]] = got
    print(json.dumps({"correct": full["correct"],
                      "attempted": full["attempted"],
                      "failed": full["failed"],
                      "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the ardbt wall-clock benchmark (see WORKLOADS.md).

    python3 perfbench/run.py --workload timestep-small --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call builds perfbench/ (which
compiles the repository's src/ tree) into .bench_build/perfbench; later
calls rebuild incrementally. One workload runs per call; the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a run that records benchmark-side spans (written to
.bench_build/perfbench/traces/). Exact, host-independent figures (virtual
times, message/byte/flop counts, service cache counts) are remembered per
workload, seed and built binary under .bench_build/perfbench/exact/; a run
whose exact figures differ from an earlier run of the same seed on the same
binary is incorrect. A rebuilt program starts a new record, so a change that
legitimately alters those figures is not compared with the old code's.

Exit status: 0 when correct, 1 when a correctness gate failed, 2 when the
benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("timestep-small", "service-mix")
# A run must finish within 180 s; the binary gets what the build left of it.
RUN_LIMIT_S = 175.0
BUILD_LIMIT_S = 850.0


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no ardbt source tree next to perfbench/ (expected src/CMakeLists.txt)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            die(tool + " not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                     + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
        except subprocess.TimeoutExpired:
            die("build timed out: " + " ".join(cmd))
        if proc.returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def check_exact(binary, workload, seed, exact, errors):
    """Compare exact figures with earlier runs of the same workload and seed
    on the same binary."""
    path = os.path.join(BUILD, "exact", "%s-seed%d-%s.json"
                        % (workload, seed, file_digest(binary)))
    known = {}
    if os.path.isfile(path):
        with open(path) as f:
            known = json.load(f)
    for key, value in exact.items():
        if key in known and known[key] != value:
            errors.append("exact figure %s is %r, an earlier run of seed %d on this "
                          "binary gave %r" % (key, value, seed, known[key]))
    known.update(exact)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")

    start = time.monotonic()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    left = max(10.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        die("workload %s did not finish within %.0f s" % (args.workload, left))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("benchmark binary printed no result (exit status %d)" % proc.returncode)
    if proc.returncode not in (0, 1):
        die("benchmark binary failed with exit status %d" % proc.returncode)

    errors = list(result["errors"])
    check_exact(binary, args.workload, args.seed, result["exact"], errors)
    for message in errors:
        print("perfbench: FAIL: " + message, file=sys.stderr)
    correct = bool(result["correct"]) and not errors
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

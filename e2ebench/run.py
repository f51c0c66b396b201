#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

Run one workload from the root of a checkout:

    python3 e2ebench/run.py --workload mobilenet_tpu_full --seed 0 \
        --seconds 20 --trace 0

The last line of stdout is the result object. Build output and progress
go to stderr. Regenerate the golden file (slow: it runs the native
reference of every seed-bank entry) with:

    python3 e2ebench/run.py --verify
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "e2ebench-out")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
GOLDEN = os.path.join(HERE, "golden.json")
BUILD_TYPE = "RelWithDebInfo"
# Parallel build jobs and verify processes.
JOBS = max(1, min(4, os.cpu_count() or 1))
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(JOBS)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def benchmark_spec():
    """The parsed BENCHMARK.json (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    spec = benchmark_spec()
    if spec is None:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", GOLDEN, "--out-dir", OUT_DIR, "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        log(f"e2ebench exited with {proc.returncode}")
        sys.exit(1)
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        log("metrics differ from BENCHMARK.json: " + ", ".join(
            sorted(set(declared) ^ set(result["metrics"]))))
        sys.exit(1)
    print("\n".join(lines), flush=True)


def verify_output(workload, arg):
    """Last stdout line of `e2ebench --workload <w> --verify <arg>`."""
    out = subprocess.run([BINARY, "--workload", workload, "--verify", arg],
                         stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if out.returncode:
        raise RuntimeError(f"verify {workload} {arg} failed")
    return out.stdout.strip().splitlines()[-1]


def verify():
    """Regenerate golden.json from every workload's verify-mode entries."""
    spec = benchmark_spec()
    if spec is None:
        log("--verify reads the workloads from BENCHMARK.json")
        sys.exit(1)
    tasks = []
    for w in spec["workloads"]:
        count = int(verify_output(w["name"], "count"))
        tasks += [(w["name"], i) for i in range(count)]

    def one(task):
        workload, index = task
        frag = json.loads(verify_output(workload, str(index)))
        log(f"verified {workload} entry {index}")
        return frag

    golden = {}
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for frag in pool.map(one, tasks):
            workload = frag.pop("workload")
            if workload == "service_mix":
                golden[workload] = frag
            else:
                seeds = golden.setdefault(workload, {"seeds": {}})["seeds"]
                seeds[str(frag["bank_index"])] = frag
    with open(GOLDEN + ".tmp", "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(GOLDEN + ".tmp", GOLDEN)
    log(f"wrote {GOLDEN}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--verify", action="store_true",
                   help="regenerate golden.json instead of running")
    args = p.parse_args()
    if not args.verify and None in (args.workload, args.seed, args.seconds,
                                    args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    build()
    verify() if args.verify else run(args)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--scale full|tiny]
                             [--perturb-digest]

Run it from the root of a checkout. It builds perfbench/ (the simulator
library from src/ plus the perf_layers harness) as a Release build under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
perf_layers, and passes its output through. The last line of stdout is
the result: {"correct", "attempted", "failed", "metrics"}. A traced run
(--trace 1) also writes Chrome trace-event JSON to
<build root>/traces/<workload>-seed<seed>.json.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(build_dir):
    """Configure once, then (re)build; compiler output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(len(os.sched_getaffinity(0)), 8))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perf_layers")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--perturb-digest", action="store_true")
    args = parser.parse_args()

    root = build_root()
    try:
        binary = build(os.path.join(root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seconds",
           repr(args.seconds), "--trace", args.trace, "--scale", args.scale,
           "--git-sha", git_sha()]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.perturb_digest:
        cmd.append("--perturb-digest")
    if args.trace == "1":
        traces = os.path.join(root, "traces")
        os.makedirs(traces, exist_ok=True)
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--trace-file",
                os.path.join(traces, f"{args.workload}-seed{seed}.json")]

    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: perf_layers exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(run.stdout)
        print(f"run.py: perf_layers failed (exit {run.returncode})",
              file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one (workload, seed) of the repository benchmark.

    python3 perfbench/run.py --workload live-small --seed 1 --seconds 30 --trace 0

Builds the program's libraries and the benchmark binary from this checkout
(Release, into $CARGO_TARGET_DIR or .bench_build, reused when up to date),
runs the binary in a fresh process, and relays its output. The last stdout
line is the run's JSON result; the exit code is non-zero, with no result
printed, when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("live-small", "live-bulk", "sim-flat", "sim-pods")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, env):
    """Configures (once) and builds the benchmark binary; returns its path."""
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(build_dir), "--target", "cwc_perfbench",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, cwd=root, env=env, stdout=sys.stderr,
                                      stderr=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} failed: {error}")
            if done.returncode != 0:
                fail(f"build step {' '.join(step[:2])} exited with {done.returncode}")
    binary = build_dir / "cwc_perfbench"
    if not binary.is_file():
        fail(f"no benchmark binary at {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", type=float, default=1.0,
                        help="job-count multiplier (the self-test runs tiny sizes)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: perturb the reference so the check must fail")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {root / 'src'}; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    # Compiler and program temporaries stay inside the checkout too.
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    binary = build(root, build_dir, env)

    work_dir = build_dir / "run"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", str(args.size), "--work-dir", str(work_dir)]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    try:
        # A fresh process per run: the program's obs registry and link fault
        # plane are process-global and must start empty.
        run = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
    lines = run.stdout.splitlines()
    if not lines:
        fail(f"cwc_perfbench printed nothing (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("\n".join(lines), file=sys.stderr)
        fail(f"cwc_perfbench printed no result line (exit {run.returncode})")
    print("\n".join(lines), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Runs every workload the benchmark knows at a tiny size, untraced and traced,
and checks that each run is correct and prints exactly the metrics
BENCHMARK.json names, each with its unit, plus the tracing overhead and a
trace file in traced runs. Then runs one live and one simulated workload
against a deliberately corrupted reference and checks that the reference
check fails the run. Exits non-zero on the first failure.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402  (for the list of workloads the binary runs)

TINY = "0.02"


def run(workload, trace, *extra):
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                           "--size", TINY, *extra], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, lines, result


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogs = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            check(code == 0 and result is not None, f"{label}: exit {code}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: not a correct run: {result}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            check(printed == catalogs[trace],
                  f"{label}: metrics/units differ from BENCHMARK.json: "
                  f"{sorted(set(printed.items()) ^ set(catalogs[trace].items()))}")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  f"{label}: non-numeric value")
            check(any(line.startswith("accounting: ") for line in lines),
                  f"{label}: no failure accounting line")
            if trace:
                overhead = [line for line in lines if line.startswith("tracing overhead: ")]
                check(len(overhead) == len(catalogs[0]) - 1,
                      f"{label}: expected an overhead line per timed end-to-end metric")
                written = [re.search(r" to (\S+)$", line) for line in lines
                           if line.startswith("trace: wrote ")]
                check(written and written[0] and Path(written[0].group(1)).is_file(),
                      f"{label}: no trace file written")
                trace_json = json.loads(Path(written[0].group(1)).read_text())
                check(trace_json["traceEvents"], f"{label}: empty trace")
            print(f"ok   {label}: {len(printed)} metrics with units")
    for workload in ("live-small", "sim-flat"):
        code, lines, result = run(workload, 0, "--corrupt-reference")
        check(code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
              f"{workload}: a corrupted reference must fail the run (exit {code}, {result})")
        print(f"ok   {workload}: corrupted reference fails the run "
              f"({result['failed']}/{result['attempted']} jobs failed)")
    print("PASS")


if __name__ == "__main__":
    main()

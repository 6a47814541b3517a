#!/usr/bin/env python3
"""Measures how steady the benchmark is across seeds.

    python3 perfbench/steadiness.py --seeds 10 [--workloads live-small,sim-flat]
                                    [--out set1.json] [--compare set0.json]

Runs perfbench/run.py once per (workload, seed) in sequence, failing on an
incorrect result or a lost phone, then prints, for
every end-to-end metric, the quartiles of its values across the seeds and
their spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
With --compare, also checks that no median got worse than the earlier set's
by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_one(workload, seed, seconds):
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
                           "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    lost = [line for line in lines if line.startswith("accounting: ") and
            "phones_lost=0 " not in line]
    if lost:
        raise SystemExit(f"{workload} seed {seed}: phones lost: {lost[0]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write every measured value here as JSON")
    parser.add_argument("--compare", help="an earlier --out file to compare medians with")
    args = parser.parse_args()

    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    measured = {}
    verdict = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            values = run_one(workload, seed, args.seconds)
            runs.append(values)
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        measured[workload] = runs
        for name, (bound, better) in bounds.items():
            values = [run[name] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = (f"  {workload:<10} {name:<15} median={med:<12.6g} spread={spread:7.2%} "
                    f"bound={bound:.0%}")
            ok = name == "setup_s" or spread <= bound
            if name != "setup_s" and spread > bound / 3:
                line += "  (above a third of the bound)"
            if workload in earlier:
                before = statistics.median(run[name] for run in earlier[workload])
                worse = (med - before) / before if better == "lower" else (before - med) / before
                line += f" vs earlier {before:.6g} ({worse:+.2%} worse)"
                ok = ok and worse <= bound
            verdict = verdict and ok
            print(line + ("" if ok else "  FAIL"), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(measured, indent=1))
    sys.exit(0 if verdict else 1)


if __name__ == "__main__":
    main()

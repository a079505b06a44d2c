#!/usr/bin/env python3
"""Run the benchmark's end-to-end metrics over seeds and write their medians and quartiles.

    python3 scripts/bench.py --seeds 0 1 2 3 4 --out BENCH_6.json
    python3 scripts/bench.py --checkout ../parent --seeds 0 --out BENCH_5.json --append

For each seed, and each workload in the checkout's BENCHMARK.json, this runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in the
checkout, one run at a time, with T the file's ``run_seconds``. The JSON it
writes holds the checkout's ``git rev-parse HEAD``, the sha256 of its
``git diff HEAD`` (null for a clean tree), every run's result line, and per
workload and metric the median and the quartiles over the runs that exited
cleanly. ``--append`` adds the runs to those already in ``--out`` when they
measured the same commit and diff, so that two checkouts can be measured in
alternation; write ``--out`` outside the checkout's tracked files.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(checkout, *args) -> str:
    return subprocess.run(["git", "-C", checkout, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def summarize(runs) -> dict:
    """Median and quartiles of each metric over the runs that produced a result."""
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run.get("result", {}).get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
    out = {}
    for name, vals in values.items():
        q1, median, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                          if len(vals) > 1 else vals * 3)
        out[name] = {"median": median, "q1": q1, "q3": q3, "n": len(vals)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--checkout", default=ROOT, help="source checkout to measure")
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args()

    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    diff = git(checkout, "diff", "HEAD")
    report = {"commit": git(checkout, "rev-parse", "HEAD"),
              "diff_sha256": hashlib.sha256(diff.encode()).hexdigest() if diff else None,
              "seconds": seconds, "workloads": {}}
    if args.append and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            old = json.load(fh)
        measured = ("commit", "diff_sha256", "seconds")
        if [old.get(k) for k in measured] != [report[k] for k in measured]:
            parser.error(f"{args.out} holds runs of commit {old['commit']} with diff "
                         f"{old.get('diff_sha256')} at {old['seconds']} s")
        report["workloads"] = old["workloads"]

    for seed in args.seeds:
        for name in [w["name"] for w in benchmark["workloads"]]:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
            run = {"seed": seed, "exit_code": proc.returncode}
            if proc.returncode == 0:
                run["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
            else:
                sys.stderr.write(proc.stderr)
            entry = report["workloads"].setdefault(name, {"runs": []})
            entry["runs"].append(run)
            entry["summary"] = summarize(entry["runs"])
            print(f"{name} seed {seed}: exit {proc.returncode} "
                  f"{json.dumps(run.get('result', {}).get('metrics', {}))}", flush=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

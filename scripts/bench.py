#!/usr/bin/env python3
"""Run the benchmark's end-to-end metrics over seeds and write their medians and quartiles.

    python3 scripts/bench.py --seeds 0 1 2 3 4 --out BENCH_6.json
    python3 scripts/bench.py --checkout ../parent --seeds 0 --out BENCH_5.json --append
    python3 scripts/bench.py --out BENCH_7.json --compare parent.json

For each seed, and each workload in the checkout's BENCHMARK.json, this runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in the
checkout, one run at a time, with T the file's ``run_seconds``. The JSON it
writes holds the checkout's ``git rev-parse HEAD``, the sha256 of its
``git diff HEAD`` (null for a clean tree), every run's result line, and per
workload and metric the median and the quartiles over the runs that exited
cleanly. ``--append`` adds the runs to those already in ``--out`` when they
measured the same commit and diff, so that two checkouts can be measured in
alternation; write ``--out`` outside the checkout's tracked files.

``--compare PARENT.json`` then pairs the runs in ``--out`` with those of
``PARENT.json`` by seed and prints, per workload and end-to-end metric, the
ratio of the medians (``--out`` over parent), the parent's interquartile range
as a share of its median, the gap between the medians in units of that range
(positive when ``--out`` is better), the number of pairs that ``--out``
won, and a verdict against the metric's ``bound`` in BENCHMARK.json: "worse
than its N% bound" when the median is worse by more than the bound,
"unresolved" when the parent's interquartile range is wider than the bound
and not every run of ``--out`` beats every parent run, and "within its bound"
otherwise. Without ``--seeds`` nothing is run, and only the comparison is
printed.
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


def compare(change: dict, parent: dict, end_to_end: list[dict]) -> list[str]:
    """One line per workload and end-to-end metric of both reports: the median
    ratio, the parent's interquartile range, the median gap in its units, the
    pairs won and the verdict against the metric's bound. ``end_to_end`` holds
    BENCHMARK.json's metric entries, each with ``name``, ``better`` and ``bound``."""
    lines = []
    for name, entry in change["workloads"].items():
        base = parent["workloads"].get(name)
        if base is None:
            continue
        ours = {r["seed"]: r["result"]["metrics"] for r in entry["runs"] if "result" in r}
        theirs = {r["seed"]: r["result"]["metrics"] for r in base["runs"] if "result" in r}
        for m in end_to_end:
            metric, bound = m["name"], m["bound"]
            pairs = [(ours[s][metric]["value"], theirs[s][metric]["value"])
                     for s in sorted(ours.keys() & theirs.keys())]
            if not pairs or metric not in base["summary"] or metric not in entry["summary"]:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            won = sum(sign * (a - b) > 0 for a, b in pairs)
            p, c = base["summary"][metric], entry["summary"][metric]
            iqr = p["q3"] - p["q1"]
            gap = sign * (c["median"] - p["median"])
            beats_all = (min(sign * r[metric]["value"] for r in ours.values())
                         > max(sign * r[metric]["value"] for r in theirs.values()))
            if gap < -bound * p["median"]:
                verdict = f"worse than its {bound:.0%} bound"
            elif iqr > bound * p["median"] and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "within its bound"
            lines.append(f"{name} {metric}: {p['median']:.4g} -> {c['median']:.4g} "
                         f"({c['median'] / p['median']:.3f}x), parent IQR "
                         f"{iqr / p['median']:.1%} of its median, gap "
                         + (f"{gap / iqr:+.2f} IQR" if iqr else "n/a")
                         + f", won {won} of {len(pairs)} pairs: {verdict}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[])
    parser.add_argument("--out", required=True)
    parser.add_argument("--checkout", default=ROOT, help="source checkout to measure")
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--compare", metavar="PARENT.json",
                        help="compare the runs in --out with these, paired by seed")
    args = parser.parse_args()
    if not args.seeds and not args.compare:
        parser.error("give --seeds to run, --compare to compare, or both")

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
    if args.compare:
        with open(args.out, encoding="utf-8") as fh:
            change = json.load(fh)
        with open(args.compare, encoding="utf-8") as fh:
            parent = json.load(fh)
        print("\n".join(compare(change, parent, benchmark["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Standard synthetic benchmark: logistic baseline vs adversarial fair-robust training.

Runs clean and 10%-poisoned settings over a seed family and prints mean +/- s/2
error ranges for accuracy and disparate impact on the clean test split.
"""

import argparse

from fairrobust import benchmarks as B
from fairrobust.harness import ExperimentSpec, error_range, run_checked


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=B.seed_count, default=10)
    args = parser.parse_args()
    seeds = list(B.BENCHMARK_SEEDS)[: args.seeds]

    settings = [
        ("LR clean", 0.0, B.baseline_config(0)),
        ("LR poisoned 10%", 0.1, B.baseline_config(0)),
        ("fair-robust clean", 0.0, B.clean_config(0)),
        ("fair-robust poisoned 10%", 0.1, B.poisoned_config(0)),
    ]
    print(f"{'setting':<28} {'DI':>16} {'accuracy':>16}")
    for name, poison, base in settings:
        spec = ExperimentSpec(seeds=seeds, base=base, synthetic=B.STANDARD_SPEC,
                              poison_fraction=poison)
        runs, _ = run_checked(spec)
        di = error_range(r["di"] for r in runs).formatted
        acc = error_range(r["acc"] for r in runs).formatted
        print(f"{name:<28} {di:>16} {acc:>16}")


if __name__ == "__main__":
    main()

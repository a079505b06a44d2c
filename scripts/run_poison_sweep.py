#!/usr/bin/env python3
"""Poison-amount sweep: full fair-robust training at 10%..40% label flipping."""

import argparse
import logging

from fairrobust import benchmarks as B
from fairrobust.harness import ExperimentSpec, run_checked


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--grid", type=float, nargs="+",
                        default=[0.10, 0.20, 0.30, 0.40])
    args = parser.parse_args()
    logging.basicConfig(level=logging.ERROR)
    seeds = list(B.BENCHMARK_SEEDS)[: args.seeds]

    spec = ExperimentSpec(seeds=seeds, base=B.poisoned_config(0), synthetic=B.STANDARD_SPEC,
                          sweep_axis="poison_fraction", grid=args.grid)
    _, aggregates = run_checked(spec)
    print(f"{'poison':>7} {'DI':>8} {'accuracy':>10}")
    for agg in aggregates:
        print(f"{agg['grid_value']:>6.0%} {agg['di_mean']:>8.3f} {agg['acc_mean']:>10.3f}")


if __name__ == "__main__":
    main()

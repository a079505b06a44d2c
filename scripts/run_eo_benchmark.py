#!/usr/bin/env python3
"""Equalized-odds training on clean synthetic data, against the logistic baseline."""

import argparse
import logging

from fairrobust import benchmarks as B
from fairrobust.harness import ExperimentSpec, run_checked


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()
    logging.basicConfig(level=logging.ERROR)
    seeds = list(B.BENCHMARK_SEEDS)[: args.seeds]

    methods = {"LR": B.baseline_config(0), "fair-robust (EO)": B.eo_config(0)}
    print(f"{'method':<18} {'EO y=0':>8} {'EO y=1':>8} {'accuracy':>10}")
    for name, base in methods.items():
        spec = ExperimentSpec(seeds=seeds, base=base, synthetic=B.STANDARD_SPEC)
        _, (agg,) = run_checked(spec)
        print(f"{name:<18} {agg['eo0_mean']:>8.3f} {agg['eo1_mean']:>8.3f} "
              f"{agg['acc_mean']:>10.3f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Ablations on 10%-poisoned synthetic data.

Compares the full method against three ablations: no robustness adversary
(lambda2 = 0), no fairness adversary (lambda1 = 0), and no example
re-weighting.
"""

import argparse
import logging
from dataclasses import replace

from fairrobust import benchmarks as B
from fairrobust.harness import ExperimentSpec, run_checked


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--poison", type=float, default=0.1)
    args = parser.parse_args()
    logging.basicConfig(level=logging.ERROR)
    seeds = list(B.BENCHMARK_SEEDS)[: args.seeds]

    full = B.poisoned_config(0)
    variants = {
        "full": full,
        "no robustness (lambda2=0)": replace(full, lambda2=0.0),
        "no fairness (lambda1=0)": replace(full, lambda1=0.0),
        "no re-weighting": replace(full, reweight=False),
    }
    print(f"{'variant':<28} {'DI':>8} {'accuracy':>10}")
    for name, base in variants.items():
        spec = ExperimentSpec(seeds=seeds, base=base, synthetic=B.STANDARD_SPEC,
                              poison_fraction=args.poison)
        _, (agg,) = run_checked(spec)
        print(f"{name:<28} {agg['di_mean']:>8.3f} {agg['acc_mean']:>10.3f}")


if __name__ == "__main__":
    main()

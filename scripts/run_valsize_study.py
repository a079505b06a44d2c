#!/usr/bin/env python3
"""Validation-size study on poisoned data.

Shrinks the clean validation split from 10% to 0.1% and compares a strong
robustness knob (lambda2 = 0.4) against a weak one (lambda2 = 0.1). With a
tiny validation set the strong knob amplifies the adverse effect; turning it
down recovers accuracy.
"""

import argparse
from dataclasses import replace

from fairrobust import benchmarks as B
from fairrobust.harness import ExperimentSpec, run_checked


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=B.seed_count, default=5)
    parser.add_argument("--val-fractions", type=float, nargs="+",
                        default=[0.10, 0.05, 0.001])
    parser.add_argument("--lambda2", type=float, nargs="+", default=[0.4, 0.1])
    args = parser.parse_args()
    seeds = list(B.BENCHMARK_SEEDS)[: args.seeds]

    by_lambda2 = {}
    for lam2 in args.lambda2:
        spec = ExperimentSpec(seeds=seeds, base=replace(B.poisoned_config(0), lambda2=lam2),
                              synthetic=B.STANDARD_SPEC, poison_fraction=0.1,
                              sweep_axis="val_fraction", grid=args.val_fractions)
        by_lambda2[lam2] = run_checked(spec)[1]

    print(f"{'val size':>9} {'lambda2':>8} {'DI':>8} {'accuracy':>10}")
    for i, val_fraction in enumerate(args.val_fractions):
        for lam2 in args.lambda2:
            agg = by_lambda2[lam2][i]
            print(f"{val_fraction:>8.1%} {lam2:>8.1f} {agg['di_mean']:>8.3f} "
                  f"{agg['acc_mean']:>10.3f}")


if __name__ == "__main__":
    main()

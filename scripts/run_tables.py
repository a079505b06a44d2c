#!/usr/bin/env python3
"""The experiment tables on the standard synthetic benchmark: one subcommand
per table (benchmark, ablations, poison-sweep, valsize, eo), each over the
first ``--seeds n`` benchmark seeds.
"""

import argparse
from dataclasses import replace

from fairrobust import benchmarks as B
from fairrobust import harness
from fairrobust.harness import ExperimentSpec, error_range


def seed_count(text: str) -> int:
    """Argument type of ``--seeds n``: the first n of ``BENCHMARK_SEEDS``."""
    n = int(text)
    if not 1 <= n <= len(B.BENCHMARK_SEEDS):
        raise argparse.ArgumentTypeError(
            f"{n} is not between 1 and {len(B.BENCHMARK_SEEDS)}, the number of benchmark seeds")
    return n


def _run(args, base, **fields):
    """(run rows, aggregate rows) of one sweep from ``base`` over the chosen seeds."""
    spec = ExperimentSpec(seeds=list(B.BENCHMARK_SEEDS)[: args.seeds], base=base,
                          synthetic=B.STANDARD_SPEC, **fields)
    return harness.run_checked(spec)


def benchmark(args):
    """Logistic baseline vs fair-robust training, clean and 10%-poisoned: mean
    +/- s/2 of disparate impact and accuracy on the clean test split."""
    print(f"{'setting':<28} {'DI':>16} {'accuracy':>16}")
    for name, poison, base in [("LR clean", 0.0, B.baseline_config(0)),
                               ("LR poisoned 10%", 0.1, B.baseline_config(0)),
                               ("fair-robust clean", 0.0, B.clean_config(0)),
                               ("fair-robust poisoned 10%", 0.1, B.poisoned_config(0))]:
        runs, _ = _run(args, base, poison_fraction=poison)
        di = error_range(r["di"] for r in runs).formatted
        acc = error_range(r["acc"] for r in runs).formatted
        print(f"{name:<28} {di:>16} {acc:>16}")


def ablations(args):
    """The full method on poisoned data against no robustness adversary, no
    fairness adversary and no example re-weighting."""
    full = B.poisoned_config(0)
    variants = {
        "full": full,
        "no robustness (lambda2=0)": replace(full, lambda2=0.0),
        "no fairness (lambda1=0)": replace(full, lambda1=0.0),
        "no re-weighting": replace(full, reweight=False),
    }
    print(f"{'variant':<28} {'DI':>8} {'accuracy':>10}")
    for name, base in variants.items():
        _, (agg,) = _run(args, base, poison_fraction=args.poison)
        print(f"{name:<28} {agg['di_mean']:>8.3f} {agg['acc_mean']:>10.3f}")


def poison_sweep(args):
    """Full fair-robust training over a grid of label-flipping amounts."""
    _, aggregates = _run(args, B.poisoned_config(0), sweep_axis="poison_fraction",
                         grid=args.grid)
    print(f"{'poison':>7} {'DI':>8} {'accuracy':>10}")
    for agg in aggregates:
        print(f"{agg['grid_value']:>6.0%} {agg['di_mean']:>8.3f} {agg['acc_mean']:>10.3f}")


def valsize(args):
    """A shrinking clean validation split on 10%-poisoned data under each lambda2:
    with a tiny one, a strong robustness knob hurts and a weak one recovers."""
    by_lambda2 = {lam2: _run(args, replace(B.poisoned_config(0), lambda2=lam2),
                             poison_fraction=0.1, sweep_axis="val_fraction",
                             grid=args.val_fractions)[1]
                  for lam2 in args.lambda2}
    print(f"{'val size':>9} {'lambda2':>8} {'DI':>8} {'accuracy':>10}")
    for i, val_fraction in enumerate(args.val_fractions):
        for lam2 in args.lambda2:
            agg = by_lambda2[lam2][i]
            print(f"{val_fraction:>8.1%} {lam2:>8.1f} {agg['di_mean']:>8.3f} "
                  f"{agg['acc_mean']:>10.3f}")


def eo(args):
    """Equalized-odds training on clean data against the logistic baseline."""
    methods = {"LR": B.baseline_config(0), "fair-robust (EO)": B.eo_config(0)}
    print(f"{'method':<18} {'EO y=0':>8} {'EO y=1':>8} {'accuracy':>10}")
    for name, base in methods.items():
        _, (agg,) = _run(args, base)
        print(f"{name:<18} {agg['eo0_mean']:>8.3f} {agg['eo1_mean']:>8.3f} "
              f"{agg['acc_mean']:>10.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    tables = parser.add_subparsers(dest="table", required=True)

    def table(name, fn, seeds=5):
        p = tables.add_parser(name, description=fn.__doc__)
        p.add_argument("--seeds", type=seed_count, default=seeds)
        p.set_defaults(func=fn)
        return p

    table("benchmark", benchmark, seeds=10)
    table("ablations", ablations).add_argument("--poison", type=float, default=0.1)
    table("poison-sweep", poison_sweep).add_argument(
        "--grid", type=float, nargs="+", default=[0.10, 0.20, 0.30, 0.40])
    p = table("valsize", valsize)
    p.add_argument("--val-fractions", type=float, nargs="+", default=[0.10, 0.05, 0.001])
    p.add_argument("--lambda2", type=float, nargs="+", default=[0.4, 0.1])
    table("eo", eo)
    args = parser.parse_args()
    if args.table == "benchmark" and args.seeds < 2:  # its +/- column is a spread over seeds
        tables.choices["benchmark"].error(
            f"argument --seeds: {args.seeds} is fewer than the 2 seeds that the +/- column needs")
    args.func(args)


if __name__ == "__main__":
    main()

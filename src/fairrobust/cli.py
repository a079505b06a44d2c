"""Command-line interface.

Subcommands: gen-synth, poison, train, sweep, metrics, aggregate-crowd,
verify-mi. Each accepts ``--config FILE`` (JSON) plus flag overrides; flags win
over file values.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .adversaries import DiscreteJoint, oracle_deviations
from .dataset import (
    SyntheticSpec,
    aggregate_crowd_labels,
    filter_workers,
    generate_synthetic,
    load_crowd_csv,
    load_csv,
    save_csv,
    split,
)
from .harness import ExperimentSpec, run_experiment
from .nnet import load_model, save_model
from .poison import PoisonSpec, flip_labels
from .trainer import TrainConfig, evaluate_model, train_fair_robust


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _merged(file_values: dict, args: argparse.Namespace, keys) -> dict:
    """File values first, then any explicitly-passed flags on top."""
    out = dict(file_values)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _cmd_gen_synth(args) -> int:
    values = _merged(_load_config(args.config), args,
                     ["n", "label_prior", "rotation_angle"])
    spec = SyntheticSpec(**{k: values[k] for k in values
                            if k in SyntheticSpec.__dataclass_fields__})
    ds = generate_synthetic(spec, args.seed)
    save_csv(ds, args.out)
    print(f"wrote {len(ds)} rows to {args.out}")
    return 0


def _cmd_poison(args) -> int:
    values = _merged(_load_config(args.config), args,
                     ["group", "fraction", "strategy", "seed"])
    ds = load_csv(args.data)
    spec = PoisonSpec(
        target_group=int(values.get("group", 1)),
        fraction=float(values.get("fraction", 0.1)),
        strategy=values.get("strategy", "degradation-surrogate"),
        seed=int(values.get("seed", 0)),
    )
    poisoned, flipped = flip_labels(ds, spec)
    save_csv(poisoned, args.out)
    print(f"flipped {len(flipped)} labels in group {spec.target_group}; wrote {args.out}")
    return 0


_TRAIN_OVERRIDES = [
    "lambda1", "lambda2", "c_threshold", "fairness_criterion", "generator_lr",
    "disc_lr", "epochs", "pretrain_epochs", "update_ratio", "seed",
    "generator_hidden", "robust_hidden", "batch_size",
]


def _cmd_train(args) -> int:
    values = _merged(_load_config(args.config), args, _TRAIN_OVERRIDES)
    if args.no_reweight:
        values["reweight"] = False
    cfg = TrainConfig.from_json_dict(
        {k: v for k, v in values.items() if k in TrainConfig.__dataclass_fields__}
    )
    train = load_csv(args.train)
    val = load_csv(args.val) if args.val else None
    model, history = train_fair_robust(train, val, cfg)
    if args.model_out:
        save_model(model, args.model_out)
    if args.history_out:
        history.to_csv(args.history_out)
    if args.test:
        report = evaluate_model(model, load_csv(args.test))
        print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    spec = ExperimentSpec.from_json_dict(_load_config(args.config))
    rows, _ = run_experiment(spec, out_dir=args.out_dir, jobs=args.jobs)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows) - len(failed)}/{len(rows)} runs succeeded; reports in {args.out_dir}")
    for r in failed:
        print(f"  failed: grid={r['grid_value']} seed={r['seed']}: {r['error']}")
    return 1 if failed else 0


def _cmd_metrics(args) -> int:
    ds = load_csv(args.data)
    model = load_model(args.model)
    report = evaluate_model(model, ds)
    payload = json.dumps(report.to_json_dict(), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_aggregate_crowd(args) -> int:
    responses = load_crowd_csv(args.responses)
    if args.gold:
        gold_rows = load_crowd_csv(args.gold)
        gold = {r.question_id: int(r.rating >= 2.5) for r in gold_rows}
        responses = filter_workers(responses, gold, args.min_accuracy)
    labels = aggregate_crowd_labels(responses, args.n_max, args.threshold)
    lines = [f"question_id,label"] + [f"{q},{v}" for q, v in sorted(labels.items())]
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        print(payload, end="")
    return 0


def _cmd_verify_mi(args) -> int:
    rng = np.random.default_rng(args.seed)

    def joint(shape):
        pmf = rng.random(shape) ** 2
        return DiscreteJoint(pmf / pmf.sum())

    worst_closed, worst_numeric = oracle_deviations(
        joint((rng.integers(2, 5), rng.integers(2, 5))) for _ in range(args.trials))
    cond_closed, cond_numeric = oracle_deviations(
        joint((int(rng.integers(2, 4)), 2, 2)) for _ in range(args.trials))
    ok = True
    for name, worst, tol in [
        ("mi closed-form", worst_closed, 1e-6),
        ("mi numeric-maximization", worst_numeric, 1e-3),
        ("conditional-mi closed-form", cond_closed, 1e-6),
        ("conditional-mi numeric-maximization", cond_numeric, 1e-3),
    ]:
        status = "PASS" if worst < tol else "FAIL"
        ok &= worst < tol
        print(f"{status} {name}: worst deviation {worst:.3e} (tol {tol:g}, {args.trials} joints)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairrobust")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic dataset CSV")
    p.add_argument("--config")
    p.add_argument("--n", type=int)
    p.add_argument("--label-prior", dest="label_prior", type=float)
    p.add_argument("--rotation-angle", dest="rotation_angle", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("poison", help="label-flip a dataset CSV")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--group", type=int)
    p.add_argument("--fraction", type=float)
    p.add_argument("--strategy", choices=["degradation-surrogate", "random"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_poison)

    p = sub.add_parser("train", help="train on CSV data")
    p.add_argument("--config")
    p.add_argument("--train", required=True)
    p.add_argument("--val")
    p.add_argument("--test")
    p.add_argument("--model-out", dest="model_out")
    p.add_argument("--history-out", dest="history_out")
    p.add_argument("--no-reweight", action="store_true")
    for name in _TRAIN_OVERRIDES:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name,
                       type=type(getattr(TrainConfig, name)))
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="run an experiment grid from a JSON spec")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("metrics", help="evaluate a saved model on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("aggregate-crowd", help="aggregate crowd ratings into labels")
    p.add_argument("--responses", required=True)
    p.add_argument("--gold", help="CSV of gold questions (rating column holds truth)")
    p.add_argument("--n-max", dest="n_max", type=int, default=11)
    p.add_argument("--threshold", type=float, default=2.5)
    p.add_argument("--min-accuracy", dest="min_accuracy", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_aggregate_crowd)

    p = sub.add_parser("verify-mi", help="check discriminator MI against exact MI")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_mi)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: gen-synth, poison, train, sweep, metrics, aggregate-crowd,
verify-mi. gen-synth, poison, train and sweep accept ``--config FILE``, a JSON
object that ``trainer.from_json`` reads into ``SyntheticSpec``, ``PoisonSpec``,
``TrainConfig`` or ``ExperimentSpec``; in the first three, a flag named after a
field wins over the file value. A key that no field reads, a value of
the wrong JSON type, any other ``ConfigError``, bad data (``DataError``) and
a file that cannot be opened (``OSError``) exit with code 2 and the error on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .adversaries import DiscreteJoint, oracle_deviations
from .dataset import (
    DataError,
    SyntheticSpec,
    aggregate_crowd_labels,
    filter_workers,
    generate_synthetic,
    load_crowd_csv,
    load_csv,
    save_csv,
)
from .harness import ExperimentSpec, run_experiment
from .metrics import UndefinedGroupError
from .nnet import MLPSpec, init_model
from .poison import POISON_STRATEGIES, PoisonSpec, flip_labels
from .trainer import (ConfigError, TrainConfig, evaluate_model, from_json, load_model,
                      save_model, train_fair_robust)


def _read_config(cls, args: argparse.Namespace, what: str, **defaults):
    """``cls`` read by ``from_json`` from ``defaults``, then the values of the
    ``--config`` file, then each passed flag that names a field of ``cls``. A
    file that is not a JSON object goes to ``from_json`` as it is, which
    rejects it as ``what``."""
    values = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config} is not valid JSON: {exc}") from None
    if isinstance(values, dict):
        flags = {f.name: getattr(args, f.name, None) for f in fields(cls)}
        values = {**defaults, **values, **{k: v for k, v in flags.items() if v is not None}}
    return from_json(cls, values, what)


def _cmd_gen_synth(args) -> int:
    spec = _read_config(SyntheticSpec, args, "a gen-synth config")
    ds = generate_synthetic(spec, args.seed)
    save_csv(ds, args.out)
    print(f"wrote {len(ds)} rows to {args.out}")
    return 0


def _cmd_poison(args) -> int:
    spec = _read_config(PoisonSpec, args, "a poison config", group=1, fraction=0.1)
    poisoned, flipped = flip_labels(load_csv(args.data), spec)
    save_csv(poisoned, args.out)
    print(f"flipped {len(flipped)} labels in group {spec.group}; wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _read_config(TrainConfig, args, "a train config")
    train = load_csv(args.train)
    val = load_csv(args.val) if args.val else None
    test = load_csv(args.test) if args.test else None
    if test is not None:  # fail now, not after training: score it with an untrained model
        _report(init_model(MLPSpec(input_dim=train.feature_dim + train.z_cardinality), 0),
                test, args.test)
    model, history = train_fair_robust(train, val, cfg)
    if args.model_out:
        save_model(model, args.model_out)
    if args.history_out:
        history.to_csv(args.history_out)
    if test is not None:
        print(_report(model, test, args.test))
    return 0


def _cmd_sweep(args) -> int:
    spec = _read_config(ExperimentSpec, args, "a sweep spec")
    rows, _ = run_experiment(spec, out_dir=args.out_dir, jobs=args.jobs)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows) - len(failed)}/{len(rows)} runs succeeded; reports in {args.out_dir}")
    for r in failed:
        print(f"  failed: grid={r['grid_value']} seed={r['seed']}: {r['error']}")
    return 1 if failed else 0


def _report(model, data, path) -> str:
    """``model``'s JSON metrics report on ``data``, read from ``path``, which must
    hold every group and fit the model's input width."""
    try:
        report = evaluate_model(model, data)
    except (ConfigError, UndefinedGroupError) as exc:
        raise DataError(f"{path} cannot be scored: {exc}") from None
    return json.dumps(report.to_json_dict(), indent=2)


def _cmd_metrics(args) -> int:
    try:
        model = load_model(args.model)
    except ValueError as exc:  # JSON, a ConfigError, or parameters that do not fit
        raise DataError(f"{args.model} is not a model file: {exc}") from None
    payload = _report(model, load_csv(args.data), args.data)
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
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, not {args.trials}")
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
    p.add_argument("--strategy", choices=POISON_STRATEGIES)
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
    p.add_argument("--no-reweight", dest="reweight", action="store_const", const=False)
    for f in fields(TrainConfig):
        if f.name != "reweight":  # set by --no-reweight
            p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=type(f.default))
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
    try:
        return args.func(args)
    except (ConfigError, DataError, OSError) as exc:
        print(f"fairrobust {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Experiment harness: grid sweeps over seeds with CSV reporting.

A sweep runs the full pipeline (generate or load, split, optionally poison the
training part, train, evaluate on the clean test part) for every grid point and
seed, writes one CSV row per run plus one aggregate row per grid point, and is
byte-reproducible for a fixed spec.

Surrogates and runs take one task path, over a process pool or in this
process, so the rows do not depend on ``jobs``. An invalid resolved config or a
failed surrogate fails only its own rows, and ``config_hash`` covers the split
a run makes: for a CSV spec, only the validation share it carves off.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from itertools import repeat

import numpy as np

from .benchmarks import POISON_GROUP, SPLIT_FRACTIONS, derive_seed, make_datasets
from .dataset import SyntheticSpec, load_csv
from .poison import train_surrogate
from .trainer import TrainConfig, evaluate_model, train_fair_robust

RUN_FIELDS = ["lambda1", "lambda2", "seed", "acc", "di", "eo0", "eo1", "eopp", "runtime_s"]
EXTRA_FIELDS = ["sweep_axis", "grid_value", "config_hash", "status", "error"]

SWEEP_AXES = ("lambda1", "poison_fraction", "val_fraction", "none")


@dataclass
class ExperimentSpec:
    """One sweep: a data source, a base config, a grid axis, and seeds."""

    seeds: list[int]
    base: TrainConfig = field(default_factory=TrainConfig)
    sweep_axis: str = "none"
    grid: list[float] = field(default_factory=lambda: [0.0])
    synthetic: SyntheticSpec | None = None
    train_csv: str | None = None
    val_csv: str | None = None
    test_csv: str | None = None
    split_fractions: tuple[float, float, float] = SPLIT_FRACTIONS
    poison_fraction: float = 0.0
    poison_group: int = POISON_GROUP
    poison_strategy: str = "degradation-surrogate"

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}")
        has_synth = self.synthetic is not None
        has_csv = self.train_csv is not None
        if has_synth == has_csv:
            raise ValueError("exactly one of synthetic spec or train_csv is required")
        if has_csv and self.test_csv is None:
            raise ValueError("test_csv is required with train_csv")
        if has_synth and (self.val_csv is not None or self.test_csv is not None):
            raise ValueError("a synthetic spec generates every split; drop val_csv and test_csv")
        if self.val_csv is not None and self.sweep_axis == "val_fraction":
            raise ValueError("a val_fraction sweep splits validation off train_csv; drop val_csv")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ExperimentSpec":
        payload = dict(payload)
        payload["base"] = TrainConfig.from_json_dict(payload.get("base", {}))
        if payload.get("synthetic") is not None:
            synth = dict(payload["synthetic"])
            for key in ("mean_neg", "cov_neg", "mean_pos", "cov_pos"):
                if key in synth and isinstance(synth[key], list):
                    synth[key] = tuple(
                        tuple(v) if isinstance(v, list) else v for v in synth[key]
                    )
            payload["synthetic"] = SyntheticSpec(**synth)
        if "split_fractions" in payload:
            payload["split_fractions"] = tuple(payload["split_fractions"])
        return cls(**payload)


def config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _resolve_run(spec: ExperimentSpec, grid_value: float, seed: int):
    """Resolved (fractions, poison_fraction, config fields) for one grid point and seed.

    ``fractions`` is the split ``make_datasets`` makes; with ``train_csv`` it is
    ``(1 - f_val, f_val, 0)``, or None when ``val_csv`` supplies validation rows.
    """
    fractions = spec.split_fractions
    poison_fraction = spec.poison_fraction
    config = dict(spec.base.to_json_dict(), seed=derive_seed(seed, 3))
    if spec.sweep_axis == "lambda1":
        config["lambda1"] = float(grid_value)
    elif spec.sweep_axis == "poison_fraction":
        poison_fraction = float(grid_value)
    elif spec.sweep_axis == "val_fraction":
        f_test = fractions[2]
        fractions = (1.0 - float(grid_value) - f_test, float(grid_value), f_test)
    if spec.train_csv is not None:
        fractions = None if spec.val_csv is not None else (1.0 - fractions[1], fractions[1], 0.0)
    return fractions, poison_fraction, config


def _surrogate_key(spec: ExperimentSpec, grid_value: float, seed: int):
    """What a run's degradation-surrogate model depends on, or None when the
    run trains none: runs with equal keys share one model."""
    fractions, poison_fraction, _ = _resolve_run(spec, grid_value, seed)
    if poison_fraction > 0 and spec.poison_strategy == "degradation-surrogate":
        return seed, fractions
    return None


def _loaded(spec: ExperimentSpec):
    return None if spec.synthetic is not None else tuple(
        None if path is None else load_csv(path)
        for path in (spec.train_csv, spec.val_csv, spec.test_csv))


def _surrogate(spec: ExperimentSpec, key):
    """The surrogate model of one key, trained on the clean training part that
    ``make_datasets`` poisons, or None when that raised: each run of the key
    then trains its own and records the same error in its row."""
    seed, fractions = key
    try:
        train, _, _ = make_datasets(seed, fractions, 0.0, spec.poison_group,
                                    spec.poison_strategy, spec.synthetic, _loaded(spec))
        return train_surrogate(train, derive_seed(seed, 2))
    except Exception:
        return None


def run_single(spec: ExperimentSpec, grid_value: float, seed: int, surrogate=None) -> dict:
    """One pipeline run; failures are recorded in the row, not raised.

    ``surrogate`` is the run's poisoning reference model; without it the run
    trains its own.
    """
    fractions, poison_fraction, config = _resolve_run(spec, grid_value, seed)
    resolved = {
        "config": config,
        "fractions": fractions,
        "poison_fraction": poison_fraction,
        "grid_value": grid_value,
        "seed": seed,
    }
    row = dict.fromkeys(RUN_FIELDS + EXTRA_FIELDS, "")
    row.update(lambda1=config["lambda1"], lambda2=config["lambda2"], seed=seed,
               sweep_axis=spec.sweep_axis, grid_value=grid_value,
               config_hash=config_hash(resolved), status="ok")
    start = time.perf_counter()
    try:
        cfg = TrainConfig(**config)
        train, val, test = make_datasets(seed, fractions, poison_fraction, spec.poison_group,
                                         spec.poison_strategy, spec.synthetic, _loaded(spec),
                                         surrogate)
        model, _ = train_fair_robust(train, val, cfg)
        report = evaluate_model(model, test)
        row.update(
            acc=report.accuracy,
            di=report.disparate_impact,
            eo0=report.equalized_odds.get(0, ""),
            eo1=report.equalized_odds.get(1, ""),
            eopp=report.equal_opportunity if report.equal_opportunity is not None else "",
        )
    except Exception as exc:  # recorded per-row; the sweep continues
        row["status"] = "failed"
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["runtime_s"] = round(time.perf_counter() - start, 3)
    return row


def run_experiment(spec: ExperimentSpec, out_dir=None, jobs: int = 1
                   ) -> tuple[list[dict], list[dict]]:
    """All grid points x seeds; returns (run rows, aggregate rows) sorted.

    A poisoning surrogate model that two or more runs share is trained once,
    before the runs; a run that shares its surrogate with no other trains it
    itself; ``jobs > 1`` maps both over a process pool. When ``out_dir`` is
    given, writes runs.csv, aggregates.csv, and (for a lambda1 sweep)
    tradeoff.csv there.
    """
    tasks = [(grid_value, seed) for grid_value in spec.grid for seed in spec.seeds]
    keys = [_surrogate_key(spec, g, s) for g, s in tasks]
    shared = [k for k, n in Counter(keys).items() if k is not None and n > 1]
    grid_values, seeds = zip(*tasks)
    with ProcessPoolExecutor(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        mapper = map if pool is None else pool.map
        models = dict(zip(shared, mapper(_surrogate, repeat(spec), shared)))
        # run_single is read from the module at call time, so perfbench's tracer sees every run.
        rows = list(mapper(run_single, repeat(spec), grid_values, seeds, map(models.get, keys)))
    rows.sort(key=lambda r: (r["grid_value"], r["seed"]))

    aggregates = []
    for grid_value in spec.grid:
        ok = [r for r in rows if r["grid_value"] == grid_value and r["status"] == "ok"]
        agg = {"sweep_axis": spec.sweep_axis, "grid_value": grid_value,
               "n_ok": len(ok), "n_failed": len(spec.seeds) - len(ok)}
        for key in ("acc", "di", "eo0", "eo1", "eopp"):
            values = [float(r[key]) for r in ok if r[key] != ""]
            spread = error_range(values) if len(values) > 1 else None
            agg[f"{key}_mean"] = spread.mean if spread else (values[0] if values else "")
            agg[f"{key}_std"] = spread.std if spread else ""
        aggregates.append(agg)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "runs.csv"), RUN_FIELDS + EXTRA_FIELDS, rows)
        if aggregates:
            _write_csv(os.path.join(out_dir, "aggregates.csv"),
                       list(aggregates[0].keys()), aggregates)
        if spec.sweep_axis == "lambda1":
            emit_tradeoff_curve(rows, path=os.path.join(out_dir, "tradeoff.csv"))
    return rows, aggregates


def run_checked(spec: ExperimentSpec) -> tuple[list[dict], list[dict]]:
    """``run_experiment`` on every usable core; the first failed run raises
    ``RuntimeError`` naming its seed, grid value and error."""
    rows, aggregates = run_experiment(spec, jobs=len(os.sched_getaffinity(0)))
    for r in rows:
        if r["status"] != "ok":
            raise RuntimeError(f"run failed at seed {r['seed']}, grid value "
                               f"{r['grid_value']}: {r['error']}")
    return rows, aggregates


def _write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


@dataclass
class ErrorRange:
    mean: float
    std: float
    formatted: str


def error_range(values) -> ErrorRange:
    """Mean and sample standard deviation, formatted as ``m +/- s/2``."""
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ValueError("error_range needs at least 2 values")
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1))
    return ErrorRange(mean, std, f"{mean:.3f} ± {std / 2:.3f}")


def emit_tradeoff_curve(rows, path=None) -> list[tuple[float, float, float]]:
    """(lambda1, mean accuracy, mean DI) per lambda1 value, sorted by lambda1."""
    buckets: dict[float, list[tuple[float, float]]] = {}
    for r in rows:
        if r.get("status", "ok") != "ok" or r.get("acc", "") == "":
            continue
        buckets.setdefault(float(r["lambda1"]), []).append(
            (float(r["acc"]), float(r["di"]))
        )
    curve = [
        (lam, float(np.mean([a for a, _ in pts])), float(np.mean([d for _, d in pts])))
        for lam, pts in sorted(buckets.items())
    ]
    if path is not None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda1", "accuracy", "disparate_impact"])
            writer.writerows(curve)
    return curve

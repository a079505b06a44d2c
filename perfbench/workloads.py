"""The benchmark's three workloads and the checks on their outputs.

Every workload is a closed loop driven from one process: an operation starts
only after the previous one has finished and been checked. ``prepare`` is one
set-up repetition; ``operate`` is one operation, of which only the call into
the program is timed; the checks run after the timer stops, with tracing
paused. Every check compares against a computation made here, apart from the
program, or against a property the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from fairrobust import benchmarks, cli, harness, trainer

SETUP_REPS = 3  # set-ups per run; setup_s reports their median
POISON_FRACTION = 0.1
SWEEP_GRID = [0.1, 0.2, 0.3, 0.4]
SWEEP_SEEDS = 2
HISTORY_FIELDS = ("l1", "l2", "l3", "l_c", "l_d", "r", "probe_accuracy", "probe_di")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _rate_ratio(a: float, b: float) -> float:
    """min(a/b, b/a); no positives in either group is fair, in one group unfair."""
    if a == 0.0 and b == 0.0:
        return 1.0
    if a == 0.0 or b == 0.0:
        return 0.0
    return min(a / b, b / a)


def own_report(model, ds) -> dict:
    """Accuracy, DI and per-label EO from ``predict`` outputs, by plain numpy."""
    onehot = np.eye(ds.z_cardinality)[ds.sensitive]
    probs = trainer.predict(model, np.hstack([ds.features, onehot]))
    positive = probs >= 0.5
    y, z = ds.labels, ds.sensitive

    def ratio(mask):
        return _rate_ratio(positive[mask & (z == 0)].mean(), positive[mask & (z == 1)].mean())

    everyone = np.ones(len(y), dtype=bool)
    return {"acc": float((positive == (y == 1)).mean()), "di": ratio(everyone),
            "eo0": ratio(y == 0), "eo1": ratio(y == 1)}


class Workload:
    """Shared run bookkeeping: problems found by checks and each operation's rate."""

    # Spans of this phase give the per-input-set data and poisoning figures.
    input_phase = "setup"

    def __init__(self, seed: int, jobs: int, work_dir: str, tracer):
        self.seed = seed
        self.jobs = jobs
        self.work_dir = work_dir
        self.tracer = tracer
        self.problems: list[str] = []
        self.rates: list[float] = []  # main-loop epochs per timed second, per timing
        self.attempted = 0
        self.failed = 0
        self.worker_idle_s = 0.0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def input_sets(self) -> int:
        return SETUP_REPS

    def min_ops(self) -> int:
        return 1

    def finish(self) -> None:
        """Checks over the whole run, after its last operation."""


class FairRobustWorkload(Workload):
    """FR-Train runs over seeds prepared in set-up, one run per operation.

    Set-up repetition j prepares data seed ``SETUP_REPS * seed + j``: its
    datasets and the logistic-baseline reference its checks compare against.
    Operations cycle over the prepared seeds.
    """

    poison_fraction = 0.0

    def __init__(self, *args):
        super().__init__(*args)
        self.prepared: list[dict] = []
        self.results: list[dict] = []

    def config(self, data_seed: int):
        raise NotImplementedError

    def prepare(self, rep: int) -> None:
        data_seed = SETUP_REPS * self.seed + rep
        train, val, test = benchmarks.benchmark_datasets(data_seed, self.poison_fraction)
        clean = (benchmarks.benchmark_datasets(data_seed, 0.0)
                 if self.poison_fraction > 0 else (train, val, test))
        baseline = trainer.train_logistic_baseline(train, benchmarks.baseline_config(data_seed))
        with self.tracer.paused():
            reference = own_report(baseline, test)
        self.prepared.append({"seed": data_seed, "train": train, "val": val, "test": test,
                              "clean": clean, "baseline": reference})

    def check_prepared(self) -> None:
        for p in self.prepared:
            self.check_data(p)

    def check_data(self, p: dict) -> None:
        self.check(not p["train"].poisoned_indices,
                   f"seed {p['seed']}: clean training split has poisoned rows")

    def operate(self, index: int) -> None:
        p = self.prepared[index % len(self.prepared)]
        cfg = self.config(p["seed"])
        self.attempted += 1
        start = time.perf_counter()
        try:
            model, history = trainer.train_fair_robust(p["train"], p["val"], cfg)
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc()
            self.failed += 1
            return
        self.rates.append(cfg.epochs / (time.perf_counter() - start))
        with self.tracer.paused():
            self.check_model(p, cfg, model, history)

    def check_model(self, p, cfg, model, history) -> dict:
        seed = p["seed"]
        own = own_report(model, p["test"])
        report = trainer.evaluate_model(model, p["test"])
        theirs = {"acc": report.accuracy, "di": report.disparate_impact,
                  "eo0": report.equalized_odds.get(0, float("nan")),
                  "eo1": report.equalized_odds.get(1, float("nan"))}
        for key in own:
            self.check(_close(own[key], theirs[key]),
                       f"seed {seed}: evaluate_model {key} {theirs[key]!r} != recomputed {own[key]!r}")
        self.check(len(history) == cfg.epochs,
                   f"seed {seed}: history has {len(history)} rows, expected {cfg.epochs}")
        for name in HISTORY_FIELDS:
            self.check(bool(np.isfinite(getattr(history, name)).all()),
                       f"seed {seed}: history column {name} is not finite")
        own["seed"] = seed
        self.results.append(own)
        return own


class PoisonedDI(FairRobustWorkload):
    """``fr_poisoned_di``: the paper's headline setting, DI with 10% poisoning."""

    poison_fraction = POISON_FRACTION

    def config(self, data_seed):
        return benchmarks.poisoned_config(data_seed)

    def check_data(self, p):
        train, val, test = p["train"], p["val"], p["test"]
        clean_train, clean_val, clean_test = p["clean"]
        seed = p["seed"]
        flipped = np.flatnonzero(train.labels != clean_train.labels)
        expected = math.ceil(POISON_FRACTION * len(train))
        self.check(len(flipped) == expected,
                   f"seed {seed}: {len(flipped)} labels flipped, expected {expected}")
        self.check(sorted(train.poisoned_indices) == flipped.tolist(),
                   f"seed {seed}: poisoned_indices differ from the flipped rows")
        self.check(bool((train.sensitive[flipped] == benchmarks.POISON_GROUP).all()),
                   f"seed {seed}: a flipped row lies outside group {benchmarks.POISON_GROUP}")
        self.check(np.array_equal(train.features, clean_train.features)
                   and np.array_equal(train.sensitive, clean_train.sensitive),
                   f"seed {seed}: poisoning changed features or groups")
        for name, got, want in (("validation", val, clean_val), ("test", test, clean_test)):
            self.check(all(np.array_equal(getattr(got, a), getattr(want, a))
                           for a in ("features", "sensitive", "labels")),
                       f"seed {seed}: {name} split differs from the clean pipeline's")

    def check_model(self, p, cfg, model, history):
        own = super().check_model(p, cfg, model, history)
        base = p["baseline"]
        self.check(own["di"] > base["di"],
                   f"seed {p['seed']}: DI {own['di']:.3f} does not exceed the baseline's {base['di']:.3f}")
        return own

    def finish(self):
        # Reported, not gated: the paper's "almost no decrease" in accuracy
        # holds on most seeds, but FR-Train falls more than 0.10 below the
        # baseline on some (see CHANGES.md).
        for r in self.results:
            base = next(p["baseline"] for p in self.prepared if p["seed"] == r["seed"])
            print(f"fr_poisoned_di: seed {r['seed']}: accuracy {r['acc']:.3f}, baseline "
                  f"{base['acc']:.3f}, difference {r['acc'] - base['acc']:+.3f}", file=sys.stderr)


class CleanEO(FairRobustWorkload):
    """``fr_clean_eo``: equalized-odds training (two fairness heads) on clean data."""

    def config(self, data_seed):
        return benchmarks.eo_config(data_seed)

    def finish(self):
        # Reported, not gated: EO training loses to the baseline on some
        # seeds, so a mean over one run's few seeds is not a property the
        # method has.
        seeds = {r["seed"] for r in self.results}
        base = [p["baseline"] for p in self.prepared if p["seed"] in seeds]
        for key in ("eo0", "eo1"):
            ours = float(np.mean([r[key] for r in self.results]))
            theirs = float(np.mean([b[key] for b in base]))
            verdict = "above" if ours > theirs else "NOT above"
            print(f"fr_clean_eo: mean {key} {ours:.3f} {verdict} the baseline's {theirs:.3f} "
                  f"(seeds {sorted(seeds)})", file=sys.stderr)


class PoisonSweep(Workload):
    """``lr_poison_sweep``: ``fairrobust sweep`` of the logistic baseline over poison fractions.

    One operation is one sweep task; one sweep runs every grid point for the
    seeds ``SWEEP_SEEDS * seed + j``. Each set-up repetition writes the
    sweep's spec and re-runs one of its tasks in-process with
    ``harness.run_single``; the sweep's row must reproduce that run.
    """

    input_phase = "op"

    def __init__(self, *args):
        super().__init__(*args)
        self.sweeps = 0
        self.spec = None
        self.reference = None
        self.config_path = os.path.join(self.work_dir, "sweep.json")
        self.rerun = (SWEEP_GRID[self.seed % len(SWEEP_GRID)],
                      SWEEP_SEEDS * self.seed + self.seed % SWEEP_SEEDS)

    @property
    def input_sets(self):
        """Sweeps whose calls the tracer saw."""
        return self.sweeps

    def prepare(self, rep):
        base = benchmarks.baseline_config(0)
        self.spec = harness.ExperimentSpec(
            seeds=[SWEEP_SEEDS * self.seed + j for j in range(SWEEP_SEEDS)],
            base=base,
            sweep_axis="poison_fraction",
            grid=list(SWEEP_GRID),
            synthetic=benchmarks.STANDARD_SPEC,
            split_fractions=benchmarks.SPLIT_FRACTIONS,
            poison_group=benchmarks.POISON_GROUP,
        )
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.spec.to_json_dict(), fh)
        row = harness.run_single(self.spec, *self.rerun)
        if self.reference is not None:
            self.check(all(row[k] == self.reference[k] for k in ("acc", "di", "eo0", "eo1")),
                       f"run_single is not deterministic across set-ups: {row} vs {self.reference}")
        self.reference = row

    def check_prepared(self):
        self.check(self.reference["status"] == "ok",
                   f"reference re-run failed: {self.reference['error']}")

    def min_ops(self) -> int:
        return 2 if self.tracer.installed else 1

    def operate(self, index):
        """One sweep over a pool of ``jobs`` workers.

        In a traced pass the first sweep runs untraced on the pool, for the
        workers' idle time; later sweeps run their tasks in this process, so
        the wrappers see them.
        """
        if self.tracer.installed and index == 0:
            with self.tracer.paused():
                self.worker_idle_s = self._sweep(index, self.jobs)
        else:
            self._sweep(index, 1 if self.tracer.installed else self.jobs)
            self.sweeps += 1

    def _sweep(self, index, jobs) -> float:
        """Runs and checks one sweep; returns the pool's idle seconds."""
        out_dir = os.path.join(self.work_dir, f"sweep{index}")
        argv = ["sweep", "--config", self.config_path, "--out-dir", out_dir, "--jobs", str(jobs)]
        tasks = len(SWEEP_GRID) * SWEEP_SEEDS
        self.attempted += tasks
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        self.rates.append(tasks * self.spec.base.epochs / wall)
        with self.tracer.paused():
            rows = self.check_sweep(out_dir, code, stdout.getvalue())
        self.failed += sum(r["status"] != "ok" for r in rows)
        return jobs * wall - sum(float(r["runtime_s"]) for r in rows)

    def check_sweep(self, out_dir, code, output) -> list[dict]:
        with open(os.path.join(out_dir, "runs.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(out_dir, "aggregates.csv"), newline="", encoding="utf-8") as fh:
            aggregates = list(csv.DictReader(fh))
        ok = [r for r in rows if r["status"] == "ok"]
        # A task that is not ok is a failed operation, not a wrong output; the
        # sweep must still report it through its exit code.
        self.check(code == (0 if len(ok) == len(rows) else 1),
                   f"sweep exit code {code} with {len(rows) - len(ok)} failed tasks: {output.strip()}")
        points = sorted((float(r["grid_value"]), int(r["seed"])) for r in rows)
        expected = sorted((g, s) for g in SWEEP_GRID for s in self.spec.seeds)
        self.check(points == expected, f"sweep rows {points} != grid x seeds {expected}")

        self.check(len(aggregates) == len(SWEEP_GRID),
                   f"{len(aggregates)} aggregate rows for {len(SWEEP_GRID)} grid points")
        for agg in aggregates:
            group = [r for r in ok if float(r["grid_value"]) == float(agg["grid_value"])]
            self.check(int(agg["n_ok"]) == len(group),
                       f"grid {agg['grid_value']}: n_ok {agg['n_ok']} != {len(group)}")
            for key in ("acc", "di", "eo0", "eo1", "eopp"):
                values = [float(r[key]) for r in group if r[key] != ""]
                if len(values) < 2:  # the harness leaves the std blank
                    continue
                mean = sum(values) / len(values)
                std = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
                self.check(math.isclose(float(agg[f"{key}_mean"]), mean, rel_tol=1e-9)
                           and math.isclose(float(agg[f"{key}_std"]), std, rel_tol=1e-9, abs_tol=1e-12),
                           f"grid {agg['grid_value']}: {key} mean/std {agg[f'{key}_mean']}/"
                           f"{agg[f'{key}_std']} != recomputed {mean!r}/{std!r}")

        acc = {(float(r["grid_value"]), int(r["seed"])): float(r["acc"]) for r in ok}
        for seed in self.spec.seeds:
            low, high = acc.get((SWEEP_GRID[0], seed)), acc.get((SWEEP_GRID[-1], seed))
            self.check(low is None or high is None or high < low,
                       f"seed {seed}: accuracy at {SWEEP_GRID[-1]:.0%} poisoning ({high}) is not "
                       f"below accuracy at {SWEEP_GRID[0]:.0%} ({low})")

        grid_value, seed = self.rerun
        row = next((r for r in ok
                    if float(r["grid_value"]) == grid_value and int(r["seed"]) == seed), None)
        self.check(row is None or all(row[k] == str(self.reference[k])
                                      for k in ("acc", "di", "eo0", "eo1", "config_hash")),
                   f"task ({grid_value}, {seed}) does not reproduce run_single: {row} vs {self.reference}")
        return rows


WORKLOADS = {"fr_poisoned_di": PoisonedDI, "fr_clean_eo": CleanEO, "lr_poison_sweep": PoisonSweep}

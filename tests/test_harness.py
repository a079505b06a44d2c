import csv
import json
import statistics
from dataclasses import replace

import numpy as np
import pytest

from fairrobust import benchmarks as B
from fairrobust.dataset import SyntheticSpec, save_csv
from fairrobust.harness import (
    ExperimentSpec,
    emit_tradeoff_curve,
    error_range,
    run_experiment,
    run_single,
)
from fairrobust.trainer import (
    TrainConfig,
    evaluate_model,
    train_fair_robust,
    train_logistic_baseline,
)


def tiny_spec(**kwargs):
    base = dict(
        seeds=[0, 1],
        base=TrainConfig(lambda1=0.2, lambda2=0.1, epochs=15, pretrain_epochs=5),
        synthetic=SyntheticSpec(n=200),
        sweep_axis="lambda1",
        grid=[0.0, 0.4],
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


def test_error_range_basic():
    er = error_range([1.0, 2.0, 3.0])
    assert er.mean == pytest.approx(2.0)
    assert er.std == pytest.approx(1.0)
    assert er.formatted == "2.000 ± 0.500"


def test_error_range_constant():
    er = error_range([0.7, 0.7, 0.7])
    assert er.formatted.endswith("± 0.000")


def test_error_range_requires_two_values():
    with pytest.raises(ValueError):
        error_range([1.0])


def test_error_range_matches_statistics_module():
    values = [0.81, 0.79, 0.803, 0.788, 0.82, 0.795, 0.801, 0.809, 0.79, 0.8]
    er = error_range(values)
    assert er.mean == pytest.approx(statistics.mean(values))
    assert er.std == pytest.approx(statistics.stdev(values))


def test_run_experiment_row_and_aggregate_counts(tmp_path):
    rows, aggregates = run_experiment(tiny_spec(), out_dir=tmp_path)
    assert len(rows) == 4  # 2 grid points x 2 seeds
    assert len(aggregates) == 2
    assert all(r["status"] == "ok" for r in rows)
    with open(tmp_path / "runs.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[:9] == ["lambda1", "lambda2", "seed", "acc", "di", "eo0", "eo1",
                          "eopp", "runtime_s"]
    assert (tmp_path / "tradeoff.csv").exists()


def test_run_experiment_byte_reproducible(tmp_path):
    spec = tiny_spec()
    rows_a, _ = run_experiment(spec, out_dir=tmp_path / "a")
    rows_b, _ = run_experiment(spec, out_dir=tmp_path / "b")
    skip = {"runtime_s"}
    for ra, rb in zip(rows_a, rows_b):
        assert {k: v for k, v in ra.items() if k not in skip} == \
               {k: v for k, v in rb.items() if k not in skip}
    a = (tmp_path / "a" / "tradeoff.csv").read_text()
    b = (tmp_path / "b" / "tradeoff.csv").read_text()
    assert a == b


def test_aggregates_are_functions_of_rows(tmp_path):
    rows, aggregates = run_experiment(tiny_spec(), out_dir=tmp_path)
    for agg in aggregates:
        members = [r for r in rows
                   if r["grid_value"] == agg["grid_value"] and r["status"] == "ok"]
        assert agg["acc_mean"] == pytest.approx(np.mean([r["acc"] for r in members]))


def test_failed_runs_recorded_not_raised():
    # group 1 cannot absorb a 90% flip budget -> per-row failure
    spec = tiny_spec(sweep_axis="poison_fraction", grid=[0.0, 0.9])
    rows, aggregates = run_experiment(spec)
    ok = [r for r in rows if r["status"] == "ok"]
    failed = [r for r in rows if r["status"] == "failed"]
    assert {r["grid_value"] for r in ok} == {0.0}
    assert {r["grid_value"] for r in failed} == {0.9}
    assert all("PoisonBudgetError" in r["error"] for r in failed)
    agg = {a["grid_value"]: a for a in aggregates}
    assert agg[0.9]["n_ok"] == 0 and agg[0.9]["acc_mean"] == ""


def test_emit_tradeoff_curve_single_point():
    rows = [{"lambda1": 0.3, "acc": 0.8, "di": 0.6, "status": "ok"}]
    assert emit_tradeoff_curve(rows) == [(0.3, 0.8, 0.6)]


def test_emit_tradeoff_curve_sorted():
    rows = [
        {"lambda1": 0.6, "acc": 0.7, "di": 0.9, "status": "ok"},
        {"lambda1": 0.1, "acc": 0.9, "di": 0.4, "status": "ok"},
        {"lambda1": 0.6, "acc": 0.8, "di": 0.8, "status": "ok"},
    ]
    curve = emit_tradeoff_curve(rows)
    assert [lam for lam, _, _ in curve] == [0.1, 0.6]
    assert curve[1][1] == pytest.approx(0.75)


def test_spec_json_round_trip():
    spec = tiny_spec()
    payload = json.loads(json.dumps(spec.to_json_dict()))
    back = ExperimentSpec.from_json_dict(payload)
    assert back.base == spec.base
    assert back.grid == spec.grid
    assert back.synthetic.n == spec.synthetic.n


def test_spec_requires_one_data_source():
    with pytest.raises(ValueError):
        ExperimentSpec(seeds=[0], synthetic=None, train_csv=None)


@pytest.mark.parametrize("fields", [
    dict(synthetic=SyntheticSpec(n=200), val_csv="val.csv"),
    dict(synthetic=SyntheticSpec(n=200), test_csv="test.csv"),
    dict(train_csv="train.csv", val_csv="val.csv", test_csv="test.csv",
         sweep_axis="val_fraction", grid=[0.05, 0.3]),
], ids=["synthetic_with_val_csv", "synthetic_with_test_csv", "val_fraction_with_val_csv"])
def test_spec_rejects_fields_its_data_source_ignores(fields):
    with pytest.raises(ValueError):
        ExperimentSpec(seeds=[0], **fields)


@pytest.mark.parametrize("config_fn, poison_fraction, val_fraction", [
    (B.baseline_config, 0.0, 0.1), (B.poisoned_config, 0.1, 0.1), (B.poisoned_config, 0.1, 0.001),
], ids=["lr_baseline", "poisoned_10pct", "val_fraction_0.001"])
def test_run_single_equals_benchmark_pipeline(config_fn, poison_fraction, val_fraction):
    # The scripts and the acceptance gate rely on this equivalence.
    sweep = {} if val_fraction == 0.1 else {"sweep_axis": "val_fraction", "grid": [val_fraction]}
    spec = ExperimentSpec(seeds=[4], base=replace(config_fn(0), epochs=40),
                          synthetic=B.STANDARD_SPEC, poison_fraction=poison_fraction, **sweep)
    row = run_single(spec, spec.grid[0], 4)
    if val_fraction == 0.1:
        train, val, test = B.benchmark_datasets(4, poison_fraction)
    else:
        f_test = B.SPLIT_FRACTIONS[2]
        train, val, test = B.make_datasets(4, (1.0 - val_fraction - f_test, val_fraction, f_test),
                                           poison_fraction, B.POISON_GROUP,
                                           "degradation-surrogate")
    cfg = replace(config_fn(4), epochs=40)
    model = (train_logistic_baseline(train, cfg) if config_fn is B.baseline_config
             else train_fair_robust(train, val, cfg)[0])
    report = evaluate_model(model, test)
    assert (row["status"], row["acc"], row["di"], row["eo0"], row["eo1"]) == (
        "ok", report.accuracy, report.disparate_impact,
        report.equalized_odds[0], report.equalized_odds[1])


@pytest.mark.parametrize("fields, trained", [
    (dict(sweep_axis="poison_fraction", grid=[0.1, 0.2, 0.3, 0.4]), 2),
    (dict(poison_fraction=0.1, sweep_axis="lambda1", grid=[0.0, 0.2, 0.4]), 2),
    (dict(poison_fraction=0.2, sweep_axis="val_fraction", grid=[0.1, 0.2]), 4),
    (dict(poison_strategy="random", sweep_axis="poison_fraction", grid=[0.1, 0.3]), 0),
], ids=["poison_fraction", "lambda1", "val_fraction", "random"])
def test_sweep_trains_each_distinct_surrogate_once(monkeypatch, fields, trained):
    # A surrogate depends on the seed and the split only; every run of a
    # sweep must still equal a standalone run that trains its own.
    from fairrobust import harness, poison

    calls = []
    original = poison.train_surrogate

    def counting(d, seed):
        calls.append(seed)
        return original(d, seed)

    monkeypatch.setattr(poison, "train_surrogate", counting)
    monkeypatch.setattr(harness, "train_surrogate", counting)
    spec = tiny_spec(base=TrainConfig(lambda1=0.2, lambda2=0.1, epochs=10, pretrain_epochs=3),
                     synthetic=SyntheticSpec(n=500), **fields)
    rows, _ = run_experiment(spec, jobs=1)
    assert len(calls) == trained
    assert all(r["status"] == "ok" for r in rows)
    for row in rows:
        alone = run_single(spec, row["grid_value"], row["seed"])
        assert {k: v for k, v in row.items() if k != "runtime_s"} == \
               {k: v for k, v in alone.items() if k != "runtime_s"}


def test_failed_surrogate_fails_every_run_that_needs_it(tmp_path):
    spec = tiny_spec(synthetic=None, train_csv=str(tmp_path / "missing.csv"),
                     test_csv=str(tmp_path / "test.csv"), sweep_axis="poison_fraction",
                     grid=[0.1, 0.2])
    rows, _ = run_experiment(spec, jobs=1)
    alone = run_single(spec, 0.1, 0)["error"]
    assert alone.startswith("FileNotFoundError")
    assert [(r["status"], r["error"]) for r in rows] == [("failed", alone)] * 4


def test_failed_surrogate_keeps_the_flip_budget_check_first(monkeypatch):
    # A run over its flip budget reports PoisonBudgetError, as a run that
    # trains its own surrogate does, and the others the surrogate's error.
    from fairrobust import harness, poison

    def diverging(d, seed):
        raise FloatingPointError("surrogate diverged")

    monkeypatch.setattr(poison, "train_surrogate", diverging)
    monkeypatch.setattr(harness, "train_surrogate", diverging)
    spec = tiny_spec(sweep_axis="poison_fraction", grid=[0.1, 0.9])
    rows, _ = run_experiment(spec, jobs=1)
    assert [(r["grid_value"], r["error"].split(":")[0]) for r in rows] == [
        (0.1, "FloatingPointError"), (0.1, "FloatingPointError"),
        (0.9, "PoisonBudgetError"), (0.9, "PoisonBudgetError")]
    for row in rows:
        alone = run_single(spec, row["grid_value"], row["seed"])
        assert (row["status"], row["error"]) == ("failed", alone["error"])


def _without_runtime(rows):
    return [{k: v for k, v in r.items() if k != "runtime_s"} for r in rows]


def test_pool_rows_equal_in_process_rows():
    # Shared surrogates go to the workers and models come back; the 0.9
    # point fails its flip budget in a worker and is still recorded.
    spec = tiny_spec(base=replace(B.baseline_config(0), epochs=30),
                     sweep_axis="poison_fraction", grid=[0.1, 0.9])
    rows_1, aggregates_1 = run_experiment(spec, jobs=1)
    rows_2, aggregates_2 = run_experiment(spec, jobs=2)
    assert [r["status"] for r in rows_1] == ["ok", "ok", "failed", "failed"]
    assert _without_runtime(rows_2) == _without_runtime(rows_1)
    assert aggregates_2 == aggregates_1


def test_invalid_grid_config_fails_only_its_own_rows():
    spec = tiny_spec(base=TrainConfig(lambda1=0.2, lambda2=0.4, epochs=15, pretrain_epochs=5),
                     grid=[0.3, 0.7])
    rows, aggregates = run_experiment(spec)
    assert [(r["grid_value"], r["status"], r["error"]) for r in rows] == [
        (0.3, "ok", ""), (0.3, "ok", ""),
        (0.7, "failed", "ConfigError: lambda1 + lambda2 must be < 1"),
        (0.7, "failed", "ConfigError: lambda1 + lambda2 must be < 1")]
    assert [a["n_ok"] for a in aggregates] == [2, 0]


def test_csv_spec_hashes_only_the_split_it_makes(tmp_path):
    # With train_csv only the validation share is used, so the train and
    # test shares of split_fractions must not change a row or its hash.
    train, _, test = B.make_datasets(0, B.SPLIT_FRACTIONS, 0.0, B.POISON_GROUP,
                                     "degradation-surrogate", SyntheticSpec(n=300))
    save_csv(train, tmp_path / "train.csv")
    save_csv(test, tmp_path / "test.csv")
    rows = [run_experiment(tiny_spec(synthetic=None, train_csv=str(tmp_path / "train.csv"),
                                     test_csv=str(tmp_path / "test.csv"),
                                     split_fractions=fractions))[0]
            for fractions in [(0.8, 0.1, 0.1), (0.5, 0.1, 0.4)]]
    assert all(r["status"] == "ok" for r in rows[0])
    assert _without_runtime(rows[1]) == _without_runtime(rows[0])

"""Acceptance gate: every criterion runs at its stated tolerance.

Run as ``pytest tests/test_acceptance.py -v``. Each test prints one PASS line
(on failure pytest shows the assertion instead). The benchmark trainings run
through ``harness.run_experiment`` on every usable core and are shared across
criteria through session-scoped fixtures; the whole module takes about 4.5
minutes on a 2-vCPU x86 virtual machine.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from fairrobust import benchmarks as B
from fairrobust.adversaries import (
    DiscreteJoint,
    fairness_objective,
    fairness_rows,
    new_fairness_adversary,
    new_robustness_adversary,
    oracle_deviations,
    robustness_objective,
    robustness_rows,
)
from fairrobust.dataset import Dataset, load_csv, save_csv, split
from fairrobust.harness import ExperimentSpec, error_range, run_experiment
from fairrobust.metrics import accuracy, disparate_impact
from fairrobust.nnet import (
    MLPSpec,
    backward,
    forward,
    forward_with_cache,
    init_model,
)
from fairrobust.poison import PoisonSpec, flip_labels
from fairrobust.trainer import evaluate_model, train_fair_robust
from gradcheck import (
    flatten_grads,
    get_flat_params,
    numeric_gradient,
    set_flat_params,
    weighted_cross_entropy,
    weighted_cross_entropy_grad,
)

pytestmark = pytest.mark.acceptance

CLEAN_SEEDS = list(B.BENCHMARK_SEEDS)[:5]
POISON_SEEDS = list(B.BENCHMARK_SEEDS)  # ten seeds
ABLATION_SEEDS = list(B.BENCHMARK_SEEDS)[:5]
JOBS = len(os.sched_getaffinity(0))


def _ok(name, detail):
    print(f"PASS {name}: {detail}")


def _collect(seeds, base, poison_fraction=0.0, **sweep):
    """One ``run_experiment`` row per seed on the standard benchmark data."""
    spec = ExperimentSpec(seeds=seeds, base=base, synthetic=B.STANDARD_SPEC,
                          poison_fraction=poison_fraction, **sweep)
    rows, _ = run_experiment(spec, jobs=JOBS)
    for r in rows:
        assert r["status"] == "ok", f"seed {r['seed']} failed: {r['error']}"
    return rows


def _random_joint(rng, shape):
    pmf = rng.random(shape) ** 2
    return DiscreteJoint(pmf / pmf.sum())


def _values(rows, key):
    """Per-seed metric values; a missing EO stratum reads as NaN."""
    return [float(r[key]) if r[key] != "" else np.nan for r in rows]


@pytest.fixture(scope="session")
def lr_rows():
    return _collect(POISON_SEEDS, B.baseline_config(0))


@pytest.fixture(scope="session")
def fr_clean_rows():
    return _collect(CLEAN_SEEDS, B.clean_config(0))


@pytest.fixture(scope="session")
def fr_poisoned_rows():
    return _collect(POISON_SEEDS, B.poisoned_config(0), 0.1)


def test_criterion_1_mi_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_closed, worst_numeric = oracle_deviations(
        _random_joint(rng, (int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        for _ in range(100))
    elapsed = time.perf_counter() - start
    assert worst_closed < 1e-6
    assert worst_numeric < 1e-3
    assert elapsed < 30
    _ok("criterion 1", f"closed {worst_closed:.2e}, numeric {worst_numeric:.2e}, "
        f"{elapsed:.1f}s")


def test_criterion_2_conditional_mi_oracle_equivalence():
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    worst_closed, worst_numeric = oracle_deviations(
        _random_joint(rng, shape) for shape in [(2, 2, 2), (3, 2, 2)] * 50)
    elapsed = time.perf_counter() - start
    assert worst_closed < 1e-6
    assert worst_numeric < 1e-3
    assert elapsed < 30
    _ok("criterion 2", f"closed {worst_closed:.2e}, numeric {worst_numeric:.2e}, "
        f"{elapsed:.1f}s")


def _rel_err(analytic, numeric):
    denom = np.maximum(np.abs(numeric), 1e-6)
    return float((np.abs(analytic - numeric) / denom).max())


def _gen_l1_check(rng, weights):
    m = len(weights)
    model = init_model(MLPSpec(2, 4, 1), int(rng.integers(1 << 31)))
    x = rng.normal(size=(m, 2))
    y = rng.integers(0, 2, m)
    cache = forward_with_cache(model, x)
    _, d_p = weighted_cross_entropy_grad(cache.output.ravel(), y, weights)
    analytic = flatten_grads(backward(model, cache, d_p[:, None]))
    flat0 = get_flat_params(model).copy()

    def f(flat):
        set_flat_params(model, flat)
        value = weighted_cross_entropy(forward(model, x).ravel(), y, weights)
        set_flat_params(model, flat0)
        return value

    return _rel_err(analytic, numeric_gradient(f, flat0))


def _joint_check(rng, objective, gen, adversary_models, yhat_fn):
    """Finite differences through generator and adversary parameters jointly."""
    models = [gen] + adversary_models
    flats = [get_flat_params(m).copy() for m in models]
    sizes = [f.size for f in flats]
    flat0 = np.concatenate(flats)

    def assign(flat):
        offset = 0
        for m, size in zip(models, sizes):
            set_flat_params(m, flat[offset : offset + size])
            offset += size

    def f(flat):
        assign(flat)
        value = objective()
        assign(flat0)
        return value

    analytic = objective(want_grads=True)
    return _rel_err(analytic, numeric_gradient(f, flat0))


def test_criterion_3_gradient_integrity():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        m = 8
        x = rng.normal(size=(m, 2))
        z = rng.integers(0, 2, m)
        y = rng.integers(0, 2, m)
        x_va = rng.normal(size=(5, 2))
        z_va = rng.integers(0, 2, 5)
        y_va = rng.integers(0, 2, 5)
        weights = np.ones(m) if trial % 2 == 0 else rng.uniform(0.2, 2.0, m)
        gen = init_model(MLPSpec(2, 3, 1), int(rng.integers(1 << 31)))
        worst = max(worst, _gen_l1_check(rng, weights))

        fair = new_fairness_adversary(2, int(rng.integers(1 << 31)))
        heads = {0: new_fairness_adversary(2, int(rng.integers(1 << 31))),
                 1: new_fairness_adversary(2, int(rng.integers(1 << 31)))}
        rob = new_robustness_adversary(2, 2, 3, int(rng.integers(1 << 31)))

        def l2_di(want_grads=False):
            cache = forward_with_cache(gen, x)
            ev = fairness_objective({0: fair}, fairness_rows(z, np.zeros(m, dtype=int)),
                                    cache.output.ravel(), weights)
            if not want_grads:
                return ev.value
            gen_grads = backward(gen, cache, ev.prediction_grad[:, None])
            return np.concatenate([flatten_grads(gen_grads),
                                   flatten_grads(ev.head_grads[0])])

        def l2_eo(want_grads=False):
            cache = forward_with_cache(gen, x)
            ev = fairness_objective(heads, fairness_rows(z, y), cache.output.ravel(), weights)
            if not want_grads:
                return ev.value
            gen_grads = backward(gen, cache, ev.prediction_grad[:, None])
            return np.concatenate([flatten_grads(gen_grads)]
                                  + [flatten_grads(ev.head_grads[k])
                                     for k in sorted(ev.head_grads)])

        def l3(want_grads=False):
            cache = forward_with_cache(gen, x)
            ev = robustness_objective(rob, robustness_rows(rob, Dataset(x, z, y),
                                                           Dataset(x_va, z_va, y_va)),
                                      cache.output.ravel())
            if not want_grads:
                return ev.value
            gen_grads = backward(gen, cache, ev.prediction_grad[:, None])
            return np.concatenate(
                [flatten_grads(gen_grads)]
                + [flatten_grads(ev.grads)])

        worst = max(worst, _joint_check(rng, l2_di, gen, [fair], None))
        worst = max(worst, _joint_check(
            rng, l2_eo, gen, [heads[0], heads[1]], None))
        worst = max(worst, _joint_check(rng, l3, gen, [rob], None))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 60
    _ok("criterion 3", f"max relative error {worst:.2e}, {elapsed:.1f}s")


def _figure_fixture():
    """Ten loan applicants: position is the single feature, M=1/F=0."""
    x = np.arange(1, 11, dtype=float)[:, None]
    z = np.array([0, 0, 1, 0, 1, 1, 1, 0, 1, 0])  # F F M F M M M F M F
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
    return x, z, y


def test_criterion_4_reference_fixture_metrics():
    x, z, y = _figure_fixture()
    # Clean data, accuracy-optimal threshold between persons 4 and 5.
    pred_nonfair = (x.ravel() > 4.5).astype(int)
    assert accuracy(pred_nonfair, y) == 1.0
    assert disparate_impact(pred_nonfair, z) == pytest.approx(0.5)
    # Clean data, rate-equalizing threshold between persons 6 and 7.
    pred_fair = (x.ravel() > 6.5).astype(int)
    assert accuracy(pred_fair, y) == pytest.approx(0.8)
    assert disparate_impact(pred_fair, z) == pytest.approx(1.0)
    # Labels of persons 5 and 7 (both M) flipped; the accuracy-optimal
    # threshold on the poisoned labels moves between persons 5 and 6.
    y_poisoned = y.copy()
    y_poisoned[[4, 6]] = 0
    pred_poisoned = (x.ravel() > 5.5).astype(int)
    best_poisoned_acc = max(
        accuracy((x.ravel() > t).astype(int), y_poisoned)
        for t in np.arange(0.5, 11.0)
    )
    assert accuracy(pred_poisoned, y_poisoned) == best_poisoned_acc
    assert accuracy(pred_poisoned, y) == pytest.approx(0.9)
    assert disparate_impact(pred_poisoned, z) == pytest.approx(2 / 3, abs=0.005)
    _ok("criterion 4", "fixture reproduces (0.5, 1.0), (1.0, 0.8), (0.67, 0.9)")


def test_criterion_5_logistic_baseline_row(lr_rows):
    di = float(np.mean(_values(lr_rows, "di")))
    acc = float(np.mean(_values(lr_rows, "acc")))
    assert abs(di - 0.409) < 0.03
    assert abs(acc - 0.885) < 0.03
    _ok("criterion 5", f"LR clean (DI, acc) = ({di:.3f}, {acc:.3f})")


def test_criterion_6_clean_and_poisoned_rows(fr_clean_rows, fr_poisoned_rows):
    di_c = float(np.mean(_values(fr_clean_rows, "di")))
    acc_c = float(np.mean(_values(fr_clean_rows, "acc")))
    assert abs(di_c - 0.818) < 0.03
    assert abs(acc_c - 0.807) < 0.03
    di_range = error_range(_values(fr_poisoned_rows, "di"))
    acc_range = error_range(_values(fr_poisoned_rows, "acc"))
    assert abs(di_range.mean - 0.795) < 0.03
    assert abs(acc_range.mean - 0.805) < 0.03
    # Spread must stay of the same order as the reference ranges (~0.02, ~0.01).
    assert di_range.std / 2 < 0.1
    assert acc_range.std / 2 < 0.05
    _ok("criterion 6",
        f"clean ({di_c:.3f}, {acc_c:.3f}); poisoned DI {di_range.formatted}, "
        f"acc {acc_range.formatted}")


@pytest.fixture(scope="session")
def ablation_means(fr_poisoned_rows):
    def means(rows):
        return (float(np.mean(_values(rows, "acc"))),
                float(np.mean(_values(rows, "di"))))

    def mean_metrics(**overrides):
        return means(_collect(ABLATION_SEEDS, replace(B.poisoned_config(0), **overrides), 0.1))

    return {
        "full": means(fr_poisoned_rows[: len(ABLATION_SEEDS)]),
        "no_r": mean_metrics(lambda2=0.0, reweight=False),
        "no_f": mean_metrics(lambda1=0.0),
        "no_rw": mean_metrics(reweight=False),
    }


def test_criterion_7_ablation_orderings(ablation_means):
    full = ablation_means["full"]
    assert full[0] > ablation_means["no_r"][0]   # accuracy beats no-robustness
    assert full[1] > ablation_means["no_f"][1]   # DI beats no-fairness
    assert full[0] >= ablation_means["no_rw"][0]  # accuracy >= no-reweighting
    _ok("criterion 7",
        "full (acc {0:.3f}, di {1:.3f}) vs no-R acc {2:.3f}, no-F di {3:.3f}, "
        "no-RW acc {4:.3f}".format(full[0], full[1], ablation_means["no_r"][0],
                                   ablation_means["no_f"][1],
                                   ablation_means["no_rw"][0]))


def test_criterion_8_heavy_poisoning_envelope():
    rows = _collect(ABLATION_SEEDS, B.poisoned_config(0), 0.4)
    di = float(np.mean(_values(rows, "di")))
    acc = float(np.mean(_values(rows, "acc")))
    assert di >= 0.73
    _ok("criterion 8", f"DI at 40% poisoning = {di:.3f} >= 0.73 (acc {acc:.3f})")


def test_criterion_9_small_validation_knob():
    accs = {}
    for lam2 in (0.4, 0.1):
        rows = _collect(ABLATION_SEEDS, replace(B.poisoned_config(0), lambda2=lam2), 0.1,
                        sweep_axis="val_fraction", grid=[0.001])
        accs[lam2] = float(np.mean(_values(rows, "acc")))
    assert accs[0.1] >= accs[0.4]
    _ok("criterion 9",
        f"0.1% validation: acc(lambda2=0.1) = {accs[0.1]:.3f} >= "
        f"acc(lambda2=0.4) = {accs[0.4]:.3f}")


def test_criterion_10_equalized_odds_training(lr_rows):
    lr_eo0 = float(np.mean(_values(lr_rows, "eo0")))
    lr_eo1 = float(np.mean(_values(lr_rows, "eo1")))
    rows = _collect(CLEAN_SEEDS, B.eo_config(0))
    eo0 = float(np.mean(_values(rows, "eo0")))
    eo1 = float(np.mean(_values(rows, "eo1")))
    assert eo0 > lr_eo0
    assert eo1 > lr_eo1
    _ok("criterion 10",
        f"EO training ({eo0:.3f}, {eo1:.3f}) above LR ({lr_eo0:.3f}, {lr_eo1:.3f}); "
        f"reference values (0.888, 0.936)")


def test_real_data_shaped_pipeline_runs(tmp_path):
    # A 500-row mixed-scale tabular fixture standing in for a recidivism-style
    # CSV: integer codes, skewed counts, a handful of numeric columns.
    rng = np.random.default_rng(99)
    n = 500
    z = rng.integers(0, 2, n)
    age = rng.integers(18, 70, n).astype(float)
    priors = rng.poisson(2.0 + 1.5 * z, n).astype(float)
    severity = rng.integers(0, 3, n).astype(float)
    logit = -2.0 + 0.05 * (45 - age) + 0.45 * priors + 0.3 * severity
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
    ds = Dataset(np.column_stack([age, priors, severity]), z, y)
    path = tmp_path / "tabular.csv"
    save_csv(ds, path)

    loaded = load_csv(path)
    train, val, test = split(loaded, (0.7, 0.15, 0.15), seed=1)
    train, flipped = flip_labels(train, PoisonSpec(1, 0.1, seed=2))
    assert len(flipped) == 35
    cfg = replace(B.poisoned_config(0), epochs=300, pretrain_epochs=50)
    model, history = train_fair_robust(train, val, cfg)
    report = evaluate_model(model, test)
    assert len(history) == 300
    assert 0.0 <= report.disparate_impact <= 1.0
    assert report.accuracy > 0.5
    _ok("real-data pipeline", f"500-row CSV end-to-end, acc {report.accuracy:.3f}")

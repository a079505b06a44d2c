import functools
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrobust import adversaries, benchmarks, poison, trainer
from fairrobust.dataset import (DataError, Dataset, SyntheticSpec, derive_seed,
                                generate_synthetic, split)
from fairrobust.metrics import disparate_impact
from fairrobust.nnet import MLPSpec, init_model
from fairrobust.trainer import (
    ConfigError,
    TrainConfig,
    TrainingDivergedError,
    compute_example_weights,
    decide,
    evaluate_model,
    model_inputs,
    predict,
    train_fair_robust,
    train_logistic_baseline,
)
from gradcheck import get_flat_params


def small_config(**kwargs):
    base = dict(epochs=60, pretrain_epochs=10, seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def datasets():
    ds = generate_synthetic(SyntheticSpec(n=400), seed=1)
    return split(ds, (0.8, 0.1, 0.1), seed=2)


def test_weights_full_trust_when_score_is_one():
    w, r = compute_example_weights(np.ones(5), l_c=0.4, l_d=0.3, c_threshold=1.0)
    assert np.allclose(w, 1.0)


def test_weights_collapse_to_gate_when_score_is_zero():
    w, r = compute_example_weights(np.zeros(5), l_c=0.4, l_d=0.3, c_threshold=1.0)
    assert np.allclose(w, r)


def test_weights_sigmoid_midpoint():
    w, r = compute_example_weights(np.array([0.6]), l_c=0.5, l_d=0.5, c_threshold=1.0)
    assert r == pytest.approx(0.5)
    assert w[0] == pytest.approx(0.8)


def test_weights_suspended_when_payoff_nonpositive():
    w, r = compute_example_weights(np.array([0.1, 0.9]), l_c=0.5, l_d=-0.01,
                                   c_threshold=1.0)
    assert np.allclose(w, 1.0) and r == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=20),
       st.floats(0.01, 3.0), st.floats(0.01, 1.0), st.floats(0.0, 3.0))
def test_weights_lie_between_gate_and_one(d_values, l_c, l_d, c):
    w, r = compute_example_weights(np.array(d_values), l_c, l_d, c)
    assert 0.0 <= r <= 1.0
    assert np.all(w >= r - 1e-12) and np.all(w <= 1.0 + 1e-12)


def test_constant_scores_scale_weights_uniformly():
    w, r = compute_example_weights(np.full(7, 0.37), l_c=0.6, l_d=0.4, c_threshold=1.0)
    assert np.allclose(w, w[0])


def test_decide_tie_goes_positive():
    assert decide([0.5])[0] == 1
    assert decide([0.2])[0] == 0
    assert decide([0.8])[0] == 1


def test_end_to_end_hand_counted_di():
    # 10 rows, predictions fixed by a wide-margin separable fixture.
    x = np.array([[i] for i in [-4, -3, -2, -1, -0.5, 0.5, 1, 2, 3, 4]], dtype=float)
    y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    z = np.array([0, 1, 0, 1, 0, 1, 0, 1, 1, 1])
    ds = Dataset(x, z, y)
    cfg = small_config(epochs=400, generator_lr=0.2, reweight=False)
    model = train_logistic_baseline(ds, cfg)
    preds = decide(predict(model, model_inputs(model, ds)))
    assert np.array_equal(preds, y)
    # rates: z=0 -> 1/4, z=1 -> 4/6; hand-counted DI = (1/4)/(4/6) = 0.375
    assert disparate_impact(preds, z) == pytest.approx(0.375)


def test_model_inputs_rejects_a_model_on_plain_features():
    ds = Dataset(np.zeros((4, 2)), [0, 1, 0, 1], [0, 1, 1, 0])
    plain = init_model(MLPSpec(input_dim=ds.feature_dim), seed=0)
    assert model_inputs(train_logistic_baseline(ds, small_config(epochs=1)), ds).shape == (4, 4)
    with pytest.raises(ConfigError, match="expects input dim 2; dataset provides 2 features "
                                          "and 2 sensitive codes"):
        model_inputs(plain, ds)


def test_linearly_separable_baseline_perfect():
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    ds = Dataset(x, [0, 1, 0, 1], [0, 0, 1, 1])
    model = train_logistic_baseline(ds, small_config(epochs=500, generator_lr=0.3))
    preds = decide(predict(model, model_inputs(model, ds)))
    assert np.array_equal(preds, ds.labels)


def test_degenerate_lambdas_match_baseline_exactly(datasets):
    train, val, _ = datasets
    cfg = small_config(lambda1=0.0, lambda2=0.0, reweight=False)
    model_a, _ = train_fair_robust(train, val, cfg)
    model_b = train_logistic_baseline(train, cfg)
    assert np.abs(get_flat_params(model_a) - get_flat_params(model_b)).max() < 1e-9


def test_training_deterministic(datasets):
    train, val, _ = datasets
    cfg = small_config(lambda1=0.3, lambda2=0.2, epochs=40)
    model_a, hist_a = train_fair_robust(train, val, cfg)
    model_b, hist_b = train_fair_robust(train, val, cfg)
    assert np.array_equal(get_flat_params(model_a), get_flat_params(model_b))
    assert hist_a.l1 == hist_b.l1
    assert hist_a.l2 == hist_b.l2
    assert hist_a.r == hist_b.r


def test_history_length_matches_epochs(datasets):
    train, val, _ = datasets
    cfg = small_config(lambda1=0.2, lambda2=0.1, epochs=25)
    _, hist = train_fair_robust(train, val, cfg)
    assert len(hist) == 25
    assert len(hist.probe_di) == 25


def test_one_group_training_split_records_a_nan_probe_di(datasets):
    train, _, _ = datasets
    one_group = train.subset(np.flatnonzero(train.sensitive == 0))
    assert one_group.z_cardinality == 2
    _, hist = train_fair_robust(one_group, None, small_config(epochs=5, pretrain_epochs=1))
    assert len(hist) == 5 and all(math.isnan(di) for di in hist.probe_di)
    assert all(0.0 <= acc <= 1.0 for acc in hist.probe_accuracy)


def test_lambda2_requires_validation(datasets):
    train, _, _ = datasets
    with pytest.raises(ConfigError):
        train_fair_robust(train, None, small_config(lambda2=0.2))


def test_nan_feature_row_is_data_error_at_construction(datasets):
    train, _, _ = datasets
    features = train.features.copy()
    features[3, 0] = np.nan
    with pytest.raises(DataError, match=r"features\[3, 0\]"):
        Dataset(features, train.sensitive, train.labels, z_cardinality=train.z_cardinality)


def test_runaway_adversary_step_raises_training_diverged(datasets, monkeypatch):
    # Finite data and a valid config: a robustness adversary that a runaway
    # step has overflowed has a non-finite forward pass, and training stops
    # with the one divergence error, whatever the initial draw. The adversary
    # is built overflowed, because a real 1e300 step overflows only on some
    # draws: on others it leaves every output at the probability clamp, where
    # the gradient is exactly 0, and the adversary stops moving.
    train, val, _ = datasets
    real = trainer.new_robustness_adversary

    def overflowed(*args):
        adv = real(*args)
        adv.params[:] = np.inf
        return adv

    monkeypatch.setattr(trainer, "new_robustness_adversary", overflowed)
    for seed in range(8):
        cfg = small_config(lambda1=0.3, lambda2=0.2, epochs=5, seed=seed)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train_fair_robust(train, val, cfg)


def test_robustness_adversary_runs_backward_only_in_ascent_steps(datasets, monkeypatch):
    train, val, _ = datasets
    cfg = replace(benchmarks.poisoned_config(0), epochs=3, pretrain_epochs=2)
    backward_calls = []  # (adversary output width, input gradient asked for)
    real_backward = adversaries.backward

    def counting_backward(model, cache, d_output, input_grad=True):
        backward_calls.append((model.spec.output_dim, input_grad))
        return real_backward(model, cache, d_output, input_grad)

    objective_calls = []  # param_grads of each robustness_objective call
    real_objective = trainer.robustness_objective

    def recording_objective(*args, **kwargs):
        objective_calls.append(kwargs.get("param_grads", True))
        return real_objective(*args, **kwargs)

    monkeypatch.setattr(adversaries, "backward", counting_backward)
    monkeypatch.setattr(trainer, "robustness_objective", recording_objective)
    train_fair_robust(train, val, cfg)

    per_epoch = [True] * cfg.update_ratio + [False]
    assert objective_calls == per_epoch * cfg.epochs
    robust = [grad for width, grad in backward_calls if width == 1]
    # One pass over the stacked training and validation rows per ascent call,
    # none for the evaluation call, and no input gradient.
    assert robust == [False] * (cfg.update_ratio * cfg.epochs)
    fair = [grad for width, grad in backward_calls if width > 1]
    # The fairness ascents skip the input gradient; each epoch's evaluation
    # (one DI head) needs it for the prediction gradient.
    assert fair.count(True) == cfg.epochs and fair.count(False) > 0


def test_eo_run_builds_the_fairness_plan_once(datasets, monkeypatch):
    train, val, _ = datasets
    cfg = replace(benchmarks.eo_config(0), epochs=3, pretrain_epochs=2)
    calls = []

    def recording(name, fn):
        def recorded(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return recorded

    monkeypatch.setattr(trainer, "fairness_rows", recording("plan", trainer.fairness_rows))
    monkeypatch.setattr(adversaries, "empirical_entropy",
                        recording("entropy", adversaries.empirical_entropy))
    monkeypatch.setattr(trainer, "fairness_objective",
                        recording("objective", trainer.fairness_objective))
    train_fair_robust(train, val, cfg)

    # One plan with one entropy per label stratum at set-up, then only
    # evaluations: update_ratio ascents and one descent per epoch.
    assert calls == (["plan", "entropy", "entropy"]
                     + ["objective"] * ((cfg.update_ratio + 1) * cfg.epochs))


@pytest.mark.parametrize("criterion, strata", [("DI", [0]), ("EO", [0, 1])])
def test_models_are_seeded_from_streams_of_the_config_seed(datasets, criterion, strata,
                                                           monkeypatch):
    # Generator: stream 0; head k: stream k of stream 1; robustness adversary:
    # stream 2.
    train, val, _ = datasets
    cfg = replace(benchmarks.poisoned_config(0), fairness_criterion=criterion, epochs=1,
                  pretrain_epochs=0)
    real, drawn = trainer.init_model, []  # (hidden units, outputs, seed) of each model

    def recording(spec, seed):
        drawn.append((spec.hidden_dim, spec.output_dim, seed))
        return real(spec, seed)

    monkeypatch.setattr(trainer, "init_model", recording)
    monkeypatch.setattr(adversaries, "init_model", recording)
    train_fair_robust(train, val, cfg)

    assert drawn == ([(0, 1, derive_seed(cfg.seed, 0))]
                     + [(0, 2, derive_seed(derive_seed(cfg.seed, 1), k)) for k in strata]
                     + [(trainer.ROBUST_HIDDEN, 1, derive_seed(cfg.seed, 2))])


def test_fairness_heads_follow_the_plans_strata(datasets, monkeypatch):
    # A training split of label 1 alone has one EO stratum, so the run builds
    # one head, keyed 1 and seeded as head 1 of a run with both labels.
    train, val, _ = datasets
    positives = train.subset(np.flatnonzero(train.labels == 1))
    cfg = replace(benchmarks.eo_config(0), epochs=3, pretrain_epochs=2)
    real_new, real_objective = trainer.new_fairness_adversary, trainer.fairness_objective
    initial, keys = [], set()

    def recording_new(z_cardinality, seed):
        head = real_new(z_cardinality, seed)
        initial.append([p.copy() for p in head.weights + head.biases])
        return head

    def recording_objective(heads, *args, **kwargs):
        keys.update(heads)
        return real_objective(heads, *args, **kwargs)

    monkeypatch.setattr(trainer, "new_fairness_adversary", recording_new)
    monkeypatch.setattr(trainer, "fairness_objective", recording_objective)
    train_fair_robust(positives, val, cfg)

    want = real_new(train.z_cardinality, derive_seed(derive_seed(cfg.seed, 1), 1))
    assert len(initial) == 1 and keys == {1}
    for got, expected in zip(initial[0], want.weights + want.biases, strict=True):
        assert np.array_equal(got, expected)


def test_validation_group_beyond_training_cardinality_is_config_error(datasets):
    train, val, _ = datasets
    sensitive = val.sensitive.copy()
    sensitive[0] = 2
    val3 = Dataset(val.features, sensitive, val.labels, z_cardinality=3)
    with pytest.raises(ConfigError, match="z_cardinality is 3.*z_cardinality is 2"):
        train_fair_robust(train, val3, small_config(lambda1=0.3, lambda2=0.2, epochs=5))


def test_invalid_lambda_combination():
    with pytest.raises(ConfigError):
        TrainConfig(lambda1=0.7, lambda2=0.4)


@pytest.mark.parametrize("field, value", [
    ("generator_lr", math.inf), ("generator_lr", math.nan), ("disc_lr", math.inf),
    ("disc_lr", math.nan), ("c_threshold", math.inf), ("c_threshold", -math.inf),
    ("c_threshold", math.nan)])
def test_nonfinite_rates_and_threshold_are_config_errors(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        TrainConfig(**{field: value})


def test_eo_and_eopp_criteria_run(datasets):
    train, val, _ = datasets
    for criterion in ("EO", "EOPP"):
        cfg = small_config(lambda1=0.3, lambda2=0.1, epochs=30,
                           fairness_criterion=criterion)
        model, hist = train_fair_robust(train, val, cfg)
        assert len(hist) == 30
        assert np.isfinite(hist.l2[-1])


def test_history_csv_round_trip(tmp_path, datasets):
    train, val, _ = datasets
    _, hist = train_fair_robust(train, val, small_config(lambda1=0.2, lambda2=0.1,
                                                         epochs=12))
    path = tmp_path / "history.csv"
    hist.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:4] == ["epoch", "l1", "l2", "l3"]
    assert len(lines) == 13


def test_evaluate_model_reports(datasets):
    train, val, test = datasets
    model = train_logistic_baseline(train, small_config(epochs=300))
    report = evaluate_model(model, test)
    assert 0.5 < report.accuracy <= 1.0
    assert 0.0 <= report.disparate_impact <= 1.0


HISTORY_COLUMNS = ("l1", "l2", "l3", "l_c", "l_d", "r", "probe_accuracy", "probe_di")


@functools.cache
def golden_datasets(seed):
    train, val, _ = benchmarks.benchmark_datasets(seed, 0.1)
    return train, val


def golden_config(criterion, seed):
    return replace(benchmarks.poisoned_config(seed), fairness_criterion=criterion,
                   epochs=40, pretrain_epochs=10)


def fingerprint(model, hist):
    """sha256 of all history columns and final generator parameters, plus a
    fingerprint: each column's index-weighted sum followed by the parameters."""
    cols = np.array([getattr(hist, c) for c in HISTORY_COLUMNS])
    params = get_flat_params(model)
    digest = hashlib.sha256(cols.tobytes() + params.tobytes()).hexdigest()
    return digest, np.concatenate([cols @ np.arange(1, cols.shape[1] + 1), params])


def fingerprint_run(train, val, cfg):
    return fingerprint(*train_fair_robust(train, val, cfg))


GOLDEN = {
    ('DI', 0): [549.3963479266001, -5.288478255964307, -15.964318854332262, 549.3963479266001, -15.964318854332262, 820.0, 522.709375, 637.4746276634744, 0.3075600300372176, -0.1008130891856356, -0.38086451818498596, 0.5013814048465339, -0.3428093715655382],
    ('EO', 0): [619.1129128712432, -47.9978413234541, -13.771938135880362, 619.1129128712432, -13.771938135880362, 820.0, 520.918125, 685.0178037827817, 0.6853583200876604, -0.15514075067480562, -0.1580091740032731, 0.005177900882226752, -0.4257848617333042],
    ('EOPP', 0): [564.324007830618, 3.4541000506784707, -18.111547467568222, 564.324007830618, -18.111547467568222, 820.0, 482.658125, 532.7087581438907, 0.13053761493118973, -0.12415888396270684, -0.40081605798664616, 0.5028917039213764, -0.25610158577732306],
}


@pytest.mark.parametrize("criterion,seed", sorted(GOLDEN))
def test_golden_history_and_parameters(criterion, seed):
    digest, fingerprint = fingerprint_run(*golden_datasets(seed), golden_config(criterion, seed))
    print(f"golden {criterion} seed={seed} sha256 {digest}")
    np.testing.assert_allclose(fingerprint, GOLDEN[criterion, seed], rtol=1e-9, atol=0)


def fair_robust_run(make_config, poison_fraction):
    train, val, _ = benchmarks.benchmark_datasets(0, poison_fraction)
    return fingerprint_run(train, val, make_config(0))


def logistic_run(fit, poison_fraction):
    """Fingerprint of the one training run that ``fit(train)`` makes on the
    benchmark's training split; its history is recorded from the run."""
    train, _, _ = benchmarks.benchmark_datasets(0, poison_fraction)
    real, runs = trainer.train_fair_robust, []

    def recording(*args):
        runs.append(real(*args))
        return runs[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "train_fair_robust", recording)
        model = fit(train)
    [(run_model, hist)] = runs
    assert run_model is model
    return fingerprint(model, hist)


# Full runs on benchmark seed 0: the tuned configs for 2000 epochs, the
# logistic baseline on the 10% poisoned split, and the 800-epoch surrogate
# that poisoning ranks rows with, on the clean split (name: (run, fingerprint)).
STANDARD = {
    "eo_config clean": (functools.partial(fair_robust_run, benchmarks.eo_config, 0.0), [631170.3932410895, 1194.912771001684, 57320.6321797875, 631195.9992190085, 57320.6321797875, 2000845.9890361673, 1724011.1381249998, 1132727.8102680754, 0.38939884354652765, 0.935761223205591, 0.604828087508199, -0.536288290664333, -0.11055641016360847]),
    "poisoned_config 10%": (functools.partial(fair_robust_run, benchmarks.poisoned_config, 0.1), [1227677.7945200186, 4063.9132434817043, 122072.48439883765, 1227788.4161574668, 122072.48439883765, 2000728.8386533856, 1403595.0575, 1697621.1730564097, 0.3041869466952478, 0.35095079658738454, 0.5678627963202797, -0.5472077272257471, -0.235197432160317]),
    "baseline_config 10%": (functools.partial(
        logistic_run, lambda train: train_logistic_baseline(train, benchmarks.baseline_config(0)),
        0.1), [1130320.1103197234, 0.0, 0.0, math.nan, math.nan, math.nan, 1434111.2718749999, 895272.9357812181, 0.2189483981519772, 0.18193859372973756, -0.14046930453377024, 0.0658443212790275, -0.43679580514994354]),
    "surrogate clean": (functools.partial(
        logistic_run, lambda train: poison.train_surrogate(train, benchmarks.derive_seed(0, 2)),
        0.0), [94426.54338681372, 0.0, 0.0, math.nan, math.nan, math.nan, 279296.405625, 135898.26960231128, 0.37710064126559706, 0.9117625106607704, 0.43670611575661716, 0.6210933112564025, -0.571022089822445]),
}


@pytest.mark.parametrize("name", sorted(STANDARD))
def test_standard_run_history_and_parameters(name):
    run, want = STANDARD[name]
    digest, fingerprint = run()
    print(f"standard {name} sha256 {digest}")
    np.testing.assert_allclose(fingerprint, want, rtol=1e-9, atol=0)


def test_fairness_heads_ascend_from_the_first_epoch(monkeypatch):
    # Every epoch takes update_ratio ascent steps of the fairness heads, also
    # in a short run whose probe accuracy stays low.
    cfg = golden_config("DI", 0)
    real_objective = trainer.fairness_objective
    ascents = []

    def counting_objective(*args, prediction_grad=True, **kwargs):
        ascents.append(not prediction_grad)
        return real_objective(*args, prediction_grad=prediction_grad, **kwargs)

    monkeypatch.setattr(trainer, "fairness_objective", counting_objective)
    train_fair_robust(*golden_datasets(0), cfg)
    assert sum(ascents) == cfg.epochs * cfg.update_ratio

import functools
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrobust import adversaries, benchmarks, trainer
from fairrobust.dataset import DataError, Dataset, SyntheticSpec, generate_synthetic, split
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


def test_runaway_adversary_step_raises_training_diverged(datasets):
    # Finite data and a valid config: an SGD step of 1e300 on the robustness
    # adversary overflows its next forward pass, and training stops with the
    # one divergence error.
    train, val, _ = datasets
    cfg = small_config(lambda1=0.3, lambda2=0.2, epochs=5, disc_lr=1e300)
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
    # One validation and one training pass per ascent call, none for the
    # evaluation call, and no input gradient.
    assert robust == [False] * (2 * cfg.update_ratio * cfg.epochs)
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

    fairness_seed = np.random.SeedSequence(cfg.seed).spawn(3)[1].generate_state(1)[0]
    child = np.random.SeedSequence(int(fairness_seed)).spawn(2)[1]
    want = real_new(train.z_cardinality, int(child.generate_state(1)[0]))
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


def golden_run(criterion, seed):
    """sha256 of all history columns and final generator parameters, plus a
    fingerprint: each column's index-weighted sum followed by the parameters."""
    cfg = replace(benchmarks.poisoned_config(seed), fairness_criterion=criterion,
                  epochs=40, pretrain_epochs=10)
    model, hist = train_fair_robust(*golden_datasets(seed), cfg)
    cols = np.array([getattr(hist, c) for c in HISTORY_COLUMNS])
    params = get_flat_params(model)
    digest = hashlib.sha256(cols.tobytes() + params.tobytes()).hexdigest()
    fingerprint = np.concatenate([cols @ np.arange(1, cols.shape[1] + 1), params])
    return digest, fingerprint


GOLDEN = {
    ('DI', 0): [732.2263575113644, -10.814213679181082, 16.29180516355312, 732.2263575188764, 16.29180516355312, 819.9999999808299, 389.45875, 659.6697783065677, -0.26015236345789333, 0.4101451233900105, 0.5904367303540982, -0.908690490948115, 0.05780784327451192],
    ('EO', 0): [742.8404323623536, -18.201276412741556, 17.00045325387317, 742.8404323712075, 17.00045325387317, 819.9999999777044, 385.726875, 673.2700760061558, -0.2771446219191438, 0.4326222723689097, 0.577950837029488, -0.9025873583915992, 0.06966760121390991],
    ('EOPP', 0): [686.1625615929257, -3.5310082459256327, 5.929753241906672, 686.1625615929257, 5.929753241906672, 820.0, 486.61812499999996, 440.06929849636134, -0.22750511154075323, 0.8195267150284175, 0.6093996841366104, -0.9004248537861085, -0.16573471593383465],
}


@pytest.mark.parametrize("criterion,seed", sorted(GOLDEN))
def test_golden_history_and_parameters(criterion, seed):
    digest, fingerprint = golden_run(criterion, seed)
    print(f"golden {criterion} seed={seed} sha256 {digest}")
    np.testing.assert_allclose(fingerprint, GOLDEN[criterion, seed], rtol=1e-9, atol=0)

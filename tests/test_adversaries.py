import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrobust import adversaries, benchmarks
from fairrobust.adversaries import (
    DiscreteJoint,
    InvalidJointError,
    fairness_objective,
    fairness_rows,
    mi_exact,
    mi_via_discriminator,
    new_fairness_adversary,
    new_robustness_adversary,
    oracle_deviations,
    robustness_inputs,
    robustness_objective,
    robustness_rows,
)
from fairrobust.dataset import Dataset
from fairrobust.metrics import empirical_entropy
from fairrobust.nnet import MLPSpec, backward, forward, forward_with_cache, init_model, sgd_step
from fairrobust.trainer import train_fair_robust
from gradcheck import (
    flatten_grads,
    get_flat_params,
    masked_fairness_objective,
    numeric_gradient,
    set_flat_params,
    table_objective,
)


def _random_joint(rng, shape):
    pmf = rng.random(shape) ** 2
    pmf /= pmf.sum()
    return DiscreteJoint(pmf)


def test_mi_product_joint_is_zero():
    a = np.array([0.3, 0.7])
    b = np.array([0.2, 0.5, 0.3])
    assert mi_exact(DiscreteJoint(np.outer(a, b))) == pytest.approx(0.0, abs=1e-15)


def test_mi_perfect_dependence():
    j = DiscreteJoint(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert mi_exact(j) == pytest.approx(math.log(2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_mi_bounded_by_entropies(seed):
    j = _random_joint(np.random.default_rng(seed), (3, 2))
    mi = mi_exact(j)
    h_a = -sum(p * math.log(p) for p in j.pmf.sum(axis=1) if p > 0)
    h_b = -sum(p * math.log(p) for p in j.pmf.sum(axis=0) if p > 0)
    assert -1e-12 <= mi <= min(h_a, h_b) + 1e-12


def test_invalid_joint_rejected():
    with pytest.raises(InvalidJointError):
        DiscreteJoint(np.array([[0.5, 0.6], [0.0, 0.0]]))
    with pytest.raises(InvalidJointError):
        DiscreteJoint(np.array([[1.5, -0.5], [0.0, 0.0]]))


def test_discriminator_independent_joint():
    a = np.array([0.4, 0.6])
    b = np.array([0.5, 0.5])
    bound = mi_via_discriminator(DiscreteJoint(np.outer(a, b)))
    assert bound.value == pytest.approx(0.0, abs=1e-12)
    # Optimal table equals the group marginal for every column.
    assert np.allclose(bound.optimal_table, a[:, None])


def test_discriminator_identity_joint():
    bound = mi_via_discriminator(DiscreteJoint(np.array([[0.5, 0.0], [0.0, 0.5]])))
    assert bound.value == pytest.approx(math.log(2))
    assert np.allclose(bound.optimal_table, np.eye(2))
    assert bound.numeric_value == pytest.approx(math.log(2), abs=1e-3)


@pytest.mark.parametrize("seed, shapes", [
    (42, lambda rng: ((int(rng.integers(2, 5)), int(rng.integers(2, 5))) for _ in range(25))),
    (7, lambda rng: [(2, 2, 2), (3, 2, 2)] * 10),
], ids=["plain", "conditional"])
def test_discriminator_equivalence_random_joints(seed, shapes):
    rng = np.random.default_rng(seed)
    closed, numeric = oracle_deviations(_random_joint(rng, shape) for shape in shapes(rng))
    assert closed < 1e-6
    assert numeric < 1e-3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_any_feasible_table_is_a_lower_bound(seed):
    rng = np.random.default_rng(seed)
    j = _random_joint(rng, (3, 3))
    table = rng.random((3, 3)) + 0.05
    table /= table.sum(axis=0, keepdims=True)
    assert table_objective(j, table) <= mi_exact(j) + 1e-9


def test_cmi_conditionally_independent():
    slices = [np.outer([0.2, 0.8], [0.5, 0.5]), np.outer([0.7, 0.3], [0.1, 0.9])]
    pmf = np.stack([0.4 * slices[0], 0.6 * slices[1]], axis=2)
    j = DiscreteJoint(pmf)
    assert mi_exact(j) == pytest.approx(0.0, abs=1e-15)
    assert mi_via_discriminator(j).value == pytest.approx(0.0, abs=1e-12)


def test_cmi_degenerate_condition_matches_slice_mi():
    rng = np.random.default_rng(3)
    base = rng.random((2, 3))
    base /= base.sum()
    pmf = np.zeros((2, 3, 2))
    pmf[:, :, 0] = base
    j = DiscreteJoint(pmf)
    plain = mi_via_discriminator(DiscreteJoint(base))
    expected = mi_exact(DiscreteJoint(base))
    assert plain.optimal_table.shape == base.shape
    assert mi_exact(j) == pytest.approx(expected)
    assert mi_via_discriminator(j).value == pytest.approx(expected, abs=1e-12)


def _uniform_adversary(z_cardinality):
    adv = new_fairness_adversary(z_cardinality, seed=0)
    for p in adv.weights + adv.biases:
        p[...] = 0.0
    return adv


def test_fairness_di_uniform_adversary_balanced_groups():
    adv = _uniform_adversary(2)
    yhat = np.array([0.2, 0.9, 0.4, 0.7])
    z = np.array([0, 1, 1, 0])
    ev = fairness_objective({0: adv}, fairness_rows(z, np.zeros(4, dtype=int)), yhat)
    # (1/m) * m * log(1/2) + ln 2 = 0
    assert ev.value == pytest.approx(0.0, abs=1e-12)


def test_fairness_di_simplex_outputs():
    adv = new_fairness_adversary(3, seed=2)
    out = forward(adv, np.linspace(0.1, 0.9, 7)[:, None])
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12


def _empirical_joint(yhat_codes, z, n_z):
    counts = np.zeros((n_z, max(yhat_codes) + 1))
    for c, zz in zip(yhat_codes, z):
        counts[zz, c] += 1
    return DiscreteJoint(counts / counts.sum())


def _empirical_payoff_at_table(table, yhat_codes, z, log_eps=1e-12):
    m = len(z)
    total = sum(math.log(max(table[zz, c], log_eps)) for c, zz in zip(yhat_codes, z))
    return total / m


def test_fairness_objective_equals_mi_of_discretized_joint():
    # Six examples taking two distinct prediction values; brute-force grid over
    # 2x2 column-simplex tables maximizes the empirical payoff.
    yhat_values = [0.3, 0.7]
    yhat_codes = [0, 0, 0, 1, 1, 1]
    z = [0, 0, 1, 1, 1, 0]
    joint = _empirical_joint(yhat_codes, z, 2)
    h_z = empirical_entropy(z)
    best = -np.inf
    grid = np.linspace(0.001, 0.999, 301)
    for d0 in grid:
        for d1 in grid:
            table = np.array([[d0, d1], [1 - d0, 1 - d1]])
            best = max(best, _empirical_payoff_at_table(table, yhat_codes, z) + h_z)
    assert best == pytest.approx(mi_exact(joint), abs=1e-3)


def test_fairness_eo_uniform_adversary_balanced():
    heads = {0: _uniform_adversary(2), 1: _uniform_adversary(2)}
    yhat = np.array([0.2, 0.8, 0.3, 0.7])
    z = np.array([0, 1, 0, 1])
    y = np.array([0, 0, 1, 1])
    ev = fairness_objective(heads, fairness_rows(z, y), yhat)
    assert ev.value == pytest.approx(0.0, abs=1e-12)


def test_fairness_left_out_rows_carry_no_payoff_or_gradient():
    adv = new_fairness_adversary(2, seed=3)
    yhat = np.array([0.2, 0.9, 0.4, 0.7, 0.6])
    z = np.array([0, 1, 1, 0, 1])
    strata = np.array([0, -1, 0, 0, -1])
    ev = fairness_objective({0: adv}, fairness_rows(z, strata), yhat)
    kept = strata >= 0
    alone = fairness_objective({0: adv}, fairness_rows(z[kept], np.zeros(3, dtype=int)),
                               yhat[kept])
    assert ev.value == alone.value
    assert np.array_equal(ev.prediction_grad[kept], alone.prediction_grad)
    assert np.all(ev.prediction_grad[~kept] == 0.0)


def test_fairness_no_kept_rows_is_zero_without_gradients():
    ev = fairness_objective({0: _uniform_adversary(2)}, fairness_rows([0, 1], [-1, -1]),
                            [0.3, 0.8])
    assert ev.value == 0.0 and ev.head_grads == {}
    assert np.array_equal(ev.prediction_grad, np.zeros(2))


def test_fairness_rejects_empty_input_and_missing_head():
    adv = _uniform_adversary(2)
    with pytest.raises(ValueError):
        fairness_objective({0: adv}, fairness_rows([], []), [])
    with pytest.raises(ValueError, match="stratum 1"):
        fairness_objective({0: adv}, fairness_rows([0, 1], [0, 1]), [0.3, 0.8])


def test_fairness_rows_reject_bad_input():
    with pytest.raises(ValueError, match="nonempty"):
        fairness_rows([], [])
    with pytest.raises(ValueError, match="got 4 and 3"):
        fairness_rows([0, 1, 0, 1], [0, 0, 0])
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        fairness_rows([0, 1, 0, -1], [0, 0, 0, 0])


@pytest.mark.parametrize("length", [3, 5])
def test_fairness_rejects_predictions_or_weights_of_another_length(length):
    adv = _uniform_adversary(2)
    rows = fairness_rows([0, 1, 0, 1], [0, 0, 0, 0])
    with pytest.raises(ValueError, match=f"4 predictions and {length} weights for 4 rows"):
        fairness_objective({0: adv}, rows, [0.2, 0.4, 0.6, 0.8], np.ones(length))
    with pytest.raises(ValueError, match=f"{length} predictions and 4 weights for 4 rows"):
        fairness_objective({0: adv}, rows, np.full(length, 0.5), np.ones(4))


def test_fairness_rejects_a_head_with_fewer_outputs_than_groups():
    rows = fairness_rows([0, 2, 1], [0, 0, 0])
    with pytest.raises(ValueError, match="output dim"):
        fairness_objective({0: _uniform_adversary(2)}, rows, [0.2, 0.5, 0.8])


def _assert_same_fairness_eval(got, want):
    assert got.value == want.value
    assert sorted(got.head_grads) == sorted(want.head_grads)
    for key, ref in want.head_grads.items():
        grads = got.head_grads[key]
        for a, b in zip(grads.weights + grads.biases, ref.weights + ref.biases, strict=True):
            assert np.array_equal(a, b)
        assert (grads.inputs is None) == (ref.inputs is None)
        assert ref.inputs is None or np.array_equal(grads.inputs, ref.inputs)
    assert (got.prediction_grad is None) == (want.prediction_grad is None)
    assert want.prediction_grad is None or np.array_equal(got.prediction_grad,
                                                          want.prediction_grad)


@pytest.mark.parametrize("prediction_grad", [True, False])
@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("case", ["DI", "EO", "EOPP", "absent stratum"])
def test_fairness_plan_matches_the_masked_reference_bit_for_bit(case, weighted,
                                                                prediction_grad):
    rng = np.random.default_rng(27)
    n = 300
    yhat = rng.uniform(0.01, 0.99, n)
    z = rng.integers(0, 3, n)
    y = rng.integers(0, 2, n)
    w = rng.uniform(0.2, 1.5, n) if weighted else None
    strata = {"DI": np.zeros(n, dtype=int), "EO": y, "EOPP": np.where(y == 1, 0, -1),
              "absent stratum": rng.choice([-1, 0, 2], n)}[case]  # no row in stratum 1
    heads = {key: new_fairness_adversary(3, seed=28 + key) for key in (0, 1, 2)}
    got = fairness_objective(heads, fairness_rows(z, strata), yhat, w, prediction_grad)
    want = masked_fairness_objective(heads, yhat, z, strata, w, prediction_grad)
    _assert_same_fairness_eval(got, want)


def test_fairness_eo_fixture_matches_conditional_mi():
    # Stratified brute force: independent 2x2 tables per label value.
    yhat_codes = [0, 1, 0, 1, 0, 1, 0, 1]
    z = [0, 0, 1, 1, 0, 1, 1, 0]
    y = [0, 0, 0, 0, 1, 1, 1, 1]
    m = len(z)
    pmf = np.zeros((2, 2, 2))
    for c, zz, yy in zip(yhat_codes, z, y):
        pmf[zz, c, yy] += 1 / m
    joint = DiscreteJoint(pmf)
    grid = np.linspace(0.001, 0.999, 301)
    best_total = 0.0
    for yv in (0, 1):
        rows = [(c, zz) for c, zz, yy in zip(yhat_codes, z, y) if yy == yv]
        best = -np.inf
        for d0 in grid:
            for d1 in grid:
                table = np.array([[d0, d1], [1 - d0, 1 - d1]])
                payoff = sum(math.log(table[zz, c]) for c, zz in rows) / m
                best = max(best, payoff)
        best_total += best + len(rows) / m * empirical_entropy([zz for _, zz in rows])  # H(Z | Y)
    assert best_total == pytest.approx(mi_exact(joint), abs=1e-3)


def test_robustness_uniform_adversary_is_zero():
    adv = new_robustness_adversary(feature_dim=2, z_cardinality=2, hidden_dim=4, seed=0)
    for p in adv.weights + adv.biases:
        p[...] = 0.0
    rng = np.random.default_rng(0)
    x_tr, z_tr, yhat = rng.normal(size=(6, 2)), rng.integers(0, 2, 6), rng.uniform(0.1, 0.9, 6)
    val = Dataset(rng.normal(size=(4, 2)), rng.integers(0, 2, 4), rng.integers(0, 2, 4))
    rows = robustness_rows(adv, Dataset(x_tr, z_tr, np.arange(6) % 2), val)
    ev = robustness_objective(adv, rows, yhat)
    assert ev.value == pytest.approx(0.0, abs=1e-12)


def test_robustness_optimum_matches_exact_mi_on_discrete_fixture():
    # Discrete rows -> per-cell optimal score a/(a+b); payoff at the optimum
    # equals the exact MI between the source indicator and the cell under a
    # balanced mixture.
    train_cells = [0, 0, 1, 2]
    val_cells = [0, 1, 1, 1, 2, 2]
    m_tr, m_va = len(train_cells), len(val_cells)
    cells = sorted(set(train_cells) | set(val_cells))
    payoff = 0.0
    pmf = np.zeros((2, len(cells)))  # axes: (source v, cell)
    for c in cells:
        a = val_cells.count(c) / (2 * m_va)      # mass wanting log d
        b = train_cells.count(c) / (2 * m_tr)    # mass wanting log (1 - d)
        d_star = a / (a + b)
        if a > 0:
            payoff += a * math.log(d_star)
        if b > 0:
            payoff += b * math.log(1 - d_star)
        pmf[0, cells.index(c)] = a
        pmf[1, cells.index(c)] = b
    value_at_optimum = payoff + math.log(2)
    assert value_at_optimum == pytest.approx(mi_exact(DiscreteJoint(pmf)), abs=1e-12)


def test_robustness_empty_validation_rejected():
    adv = new_robustness_adversary(2, 2, 4, seed=1)
    with pytest.raises(ValueError):
        robustness_rows(adv, Dataset(np.zeros((3, 2)), [0, 1, 0], [0, 1, 0]),
                        Dataset(np.zeros((0, 2)), [], []))


@pytest.mark.parametrize("train_z, val_z, val_labels, message", [
    ([0, 1, -1], [0, 1], [0, 1], "group code -1 is outside"),
    ([0, 1, 2], [0, 1], [0, 1], "group code 2 is outside"),
    ([0, 1, 0], [0, 2], [0, 1], r"group code 2 is outside \[0, 2\)"),
    ([0, 1, 0], [0, 1], [0, 2], "label slot 2.0 is not 0 or 1"),
])
def test_robustness_rows_reject_bad_group_codes_and_labels(train_z, val_z, val_labels, message):
    # A code outside [0, z_cardinality) must be named, not one-hot encoded as
    # another group (-1 as the last) or left to an IndexError, and so must a
    # label slot other than 0 or 1. A Dataset rejects codes outside its own
    # cardinality and labels other than 0 or 1, so every case is checked on
    # the raw arrays; ``robustness_rows`` encodes both splits with the
    # training cardinality, so a validation split of more groups must fail
    # there as well.
    with pytest.raises(ValueError, match=message):
        robustness_inputs(np.zeros((3, 2)), train_z, np.ones(3), 2)
        robustness_inputs(np.zeros((2, 2)), val_z, val_labels, 2)
    if max(val_z) >= 2:
        adv = new_robustness_adversary(2, 2, 4, seed=1)
        train = Dataset(np.zeros((3, 2)), train_z, [0, 1, 0])
        val = Dataset(np.zeros((2, 2)), val_z, val_labels, z_cardinality=3)
        with pytest.raises(ValueError, match=message):
            robustness_rows(adv, train, val)


def test_adversaries_reject_an_output_width_that_names_the_other_activation():
    # One output is a sigmoid and two or more a softmax, so a one-group head
    # would not be a softmax and a two-output robustness model not a sigmoid.
    with pytest.raises(ValueError, match="2 or more groups, got 1"):
        new_fairness_adversary(1, seed=0)
    wide = init_model(MLPSpec(input_dim=5, hidden_dim=4, output_dim=2), seed=0)
    with pytest.raises(ValueError, match="scalar sigmoid output"):
        robustness_rows(wide, Dataset(np.zeros((3, 2)), [0, 1, 0], [0, 1, 0]),
                        Dataset(np.zeros((2, 2)), [0, 1], [0, 1]))


def test_robustness_payoff_affine_in_each_prediction():
    # A training row carries a predicted label Yhat ~ Bernoulli(yhat), so for a
    # fixed adversary the payoff is the yhat_i-weighted mix of its values with
    # yhat_i set to 1 and to 0.
    rng = np.random.default_rng(17)
    adv = new_robustness_adversary(2, 2, 4, seed=18)
    x_tr = rng.normal(size=(6, 2))
    z_tr = rng.integers(0, 2, 6)
    yhat = rng.uniform(0.1, 0.9, 6)
    x_va = rng.normal(size=(5, 2))
    z_va = rng.integers(0, 2, 5)
    y_va = rng.integers(0, 2, 5)

    rows = robustness_rows(adv, Dataset(x_tr, z_tr, np.arange(6) % 2), Dataset(x_va, z_va, y_va))

    def payoff(predictions):
        return robustness_objective(adv, rows, predictions).value

    base = payoff(yhat)
    for i in range(len(yhat)):
        hi, lo = yhat.copy(), yhat.copy()
        hi[i], lo[i] = 1.0, 0.0
        mixed = yhat[i] * payoff(hi) + (1.0 - yhat[i]) * payoff(lo)
        assert base == pytest.approx(mixed, abs=1e-12)


def test_robustness_label_scores_use_each_rows_own_label():
    rng = np.random.default_rng(19)
    adv = new_robustness_adversary(2, 2, 4, seed=20)
    x_tr = rng.normal(size=(8, 2))
    z_tr = rng.integers(0, 2, 8)
    y_tr = rng.integers(0, 2, 8)
    x_va, z_va, y_va = rng.normal(size=(4, 2)), rng.integers(0, 2, 4), rng.integers(0, 2, 4)
    rows = robustness_rows(adv, Dataset(x_tr, z_tr, y_tr), Dataset(x_va, z_va, y_va))
    yhat = rng.uniform(0.1, 0.9, 8)
    ev = robustness_objective(adv, rows, yhat)
    want = _reference_robustness(adv, 2, x_tr, z_tr, y_tr, yhat, x_va, z_va, y_va)
    assert np.array_equal(ev.label_scores, want["label_scores"])


def _reference_robustness(adv, z_cardinality, x_tr, z_tr, y_tr, yhat, x_va, z_va, y_va):
    """The robustness payoff with every input row rebuilt and full backward passes;
    each training row's label score is picked from its own label's slot."""
    x_pos = robustness_inputs(x_tr, z_tr, np.ones_like(yhat), z_cardinality)
    x_va = robustness_inputs(x_va, z_va, y_va, z_cardinality)
    x_neg = x_pos.copy()
    x_neg[:, -1] = 0.0
    m_tr, m_va = len(x_pos), len(x_va)
    cache_tr = forward_with_cache(adv, np.vstack([x_pos, x_neg]))
    cache_va = forward_with_cache(adv, x_va)
    d_pos, d_neg = np.split(cache_tr.output.ravel(), 2)
    d_va = cache_va.output.ravel()
    log_pos = np.log(1.0 - d_pos)
    log_neg = np.log(1.0 - d_neg)
    value = (
        float(np.log(d_va).mean()) / 2.0
        + float((yhat * log_pos + (1.0 - yhat) * log_neg).sum()) / (2.0 * m_tr)
        + math.log(2.0)
    )
    up_va = (1.0 / (2.0 * m_va * d_va))[:, None]
    up_tr = (-np.concatenate([yhat / (1.0 - d_pos), (1.0 - yhat) / (1.0 - d_neg)])
             / (2.0 * m_tr))[:, None]
    g_va = backward(adv, cache_va, up_va)
    g_tr = backward(adv, cache_tr, up_tr)
    return {
        "value": value,
        "weight_grads": [a + b for a, b in zip(g_va.weights, g_tr.weights)],
        "bias_grads": [a + b for a, b in zip(g_va.biases, g_tr.biases)],
        "prediction_grad": (log_pos - log_neg) / (2.0 * m_tr),
        "label_scores": np.where(np.asarray(y_tr) == 1, d_pos, d_neg),
    }


def test_hoisted_robustness_paths_equal_reference_bit_for_bit():
    rng = np.random.default_rng(21)
    adv = new_robustness_adversary(2, 3, 8, seed=22)
    for p in adv.biases:
        p[...] = rng.normal(scale=0.3, size=p.shape)
    m = 300
    x_tr, z_tr = rng.normal(size=(m, 2)), rng.integers(0, 3, m)
    x_va, z_va, y_va = rng.normal(size=(40, 2)), rng.integers(0, 3, 40), rng.integers(0, 2, 40)
    yhat = rng.uniform(0.05, 0.95, m)
    y_tr = rng.integers(0, 2, m)
    rows = robustness_rows(adv, Dataset(x_tr, z_tr, y_tr, z_cardinality=3),
                           Dataset(x_va, z_va, y_va, z_cardinality=3))
    ref = _reference_robustness(adv, 3, x_tr, z_tr, y_tr, yhat, x_va, z_va, y_va)

    ascent = robustness_objective(adv, rows, yhat)
    evaluation = robustness_objective(adv, rows, yhat, param_grads=False)
    for ev in (ascent, evaluation):
        assert ev.value == ref["value"]
        assert np.array_equal(ev.prediction_grad, ref["prediction_grad"])
        assert np.array_equal(ev.label_scores, ref["label_scores"])
    for got, want in zip(ascent.grads.weights + ascent.grads.biases,
                         ref["weight_grads"] + ref["bias_grads"], strict=True):
        assert np.array_equal(got, want)
    assert evaluation.grads is None


def test_robustness_calls_reuse_the_rows_buffers_and_return_unaliased_results(monkeypatch):
    rng = np.random.default_rng(27)
    adv = new_robustness_adversary(2, 2, 8, seed=28)
    x_tr, z_tr = rng.normal(size=(50, 2)), rng.integers(0, 2, 50)
    val = Dataset(rng.normal(size=(10, 2)), rng.integers(0, 2, 10), rng.integers(0, 2, 10))
    rows = robustness_rows(adv, Dataset(x_tr, z_tr, np.arange(50) % 2), val)
    yhat = rng.uniform(0.05, 0.95, 50)
    setup = [(c.hidden, c.work) for c in (rows.train, rows.val)]
    caches = []

    def recording_forward(model, x, reuse=None):
        caches.append(forward_with_cache(model, x, reuse))
        return caches[-1]

    monkeypatch.setattr(adversaries, "forward_with_cache", recording_forward)
    first = robustness_objective(adv, rows, yhat)
    kept = copy.deepcopy(first)
    sgd_step(adv, first.grads, -0.5)
    later = robustness_objective(adv, rows, rng.uniform(0.05, 0.95, 50))

    assert len(caches) == 2  # the first call reuses the set-up pass, the second reruns it
    # The rerun writes into the buffers allocated at set-up.
    for cache, buffers in zip(caches, setup, strict=True):
        for got, allocated in zip((cache.hidden, cache.work), buffers, strict=True):
            assert np.shares_memory(got, allocated)
    assert later.value != first.value

    def arrays(ev):
        return ev.grads.weights + ev.grads.biases + [ev.prediction_grad, ev.label_scores]

    for got, want in zip(arrays(first), arrays(kept), strict=True):
        assert np.array_equal(got, want)
        assert not any(np.shares_memory(got, buffer) for buffers in setup for buffer in buffers)


def test_robustness_reruns_the_forward_pass_after_a_one_ulp_parameter_change():
    rng = np.random.default_rng(29)
    adv = new_robustness_adversary(2, 2, 8, seed=30)
    x_tr, z_tr = rng.normal(size=(60, 2)), rng.integers(0, 2, 60)
    x_va, z_va, y_va = rng.normal(size=(12, 2)), rng.integers(0, 2, 12), rng.integers(0, 2, 12)
    yhat = rng.uniform(0.05, 0.95, 60)
    y_tr = np.arange(60) % 2
    rows = robustness_rows(adv, Dataset(x_tr, z_tr, y_tr), Dataset(x_va, z_va, y_va))
    robustness_objective(adv, rows, yhat)
    for p, index in ((adv.weights[0], (3, 5)), (adv.biases[1], (0,))):
        p[index] = np.nextafter(p[index], np.inf)  # in place, as a finite difference does
        got = robustness_objective(adv, rows, yhat)
        want = _reference_robustness(adv, 2, x_tr, z_tr, y_tr, yhat, x_va, z_va, y_va)
        assert got.value == want["value"]
        assert np.array_equal(got.prediction_grad, want["prediction_grad"])
        assert np.array_equal(got.label_scores, want["label_scores"])
        for a, b in zip(got.grads.weights + got.grads.biases,
                        want["weight_grads"] + want["bias_grads"], strict=True):
            assert np.array_equal(a, b)


def test_a_run_computes_one_robustness_forward_pair_per_parameter_state(monkeypatch):
    train, val, _ = benchmarks.benchmark_datasets(0, 0.1)
    cfg = replace(benchmarks.poisoned_config(0), epochs=3, pretrain_epochs=2)
    passes = []

    def counting_forward(model, x, reuse=None):
        if model.spec.hidden_dim:  # the robustness adversary; the fairness head is linear
            passes.append(len(x))
        return forward_with_cache(model, x, reuse)

    monkeypatch.setattr(adversaries, "forward_with_cache", counting_forward)
    train_fair_robust(train, val, cfg)
    # The set-up pair, then one pair after each ascent step: the evaluation at
    # the end of an epoch and the next epoch's first ascent share theirs.
    assert passes == [2 * len(train.labels), len(val.labels)] * (1 + cfg.update_ratio * cfg.epochs)


def test_robustness_rows_reject_a_prediction_count_mismatch():
    adv = new_robustness_adversary(2, 2, 4, seed=23)
    rows = robustness_rows(adv, Dataset(np.zeros((5, 2)), [0, 1, 0, 1, 0], [1, 0, 1, 0, 1]),
                           Dataset(np.zeros((2, 2)), [0, 1], [1, 0]))
    with pytest.raises(ValueError, match="4 predictions for 5 training rows"):
        robustness_objective(adv, rows, np.full(4, 0.5))


def test_fairness_ascent_without_prediction_grad_keeps_value_and_head_grads():
    rng = np.random.default_rng(24)
    heads = {0: new_fairness_adversary(2, seed=25), 1: new_fairness_adversary(2, seed=26)}
    yhat = rng.uniform(0.05, 0.95, 50)
    z, y, w = rng.integers(0, 2, 50), rng.integers(0, 2, 50), rng.uniform(0.2, 1.5, 50)
    full = fairness_objective(heads, fairness_rows(z, y), yhat, w)
    ascent = fairness_objective(heads, fairness_rows(z, y), yhat, w, prediction_grad=False)
    assert ascent.prediction_grad is None and full.prediction_grad.shape == (50,)
    assert ascent.value == full.value
    for key in (0, 1):
        got, want = ascent.head_grads[key], full.head_grads[key]
        for a, b in zip(got.weights + got.biases, want.weights + want.biases, strict=True):
            assert np.array_equal(a, b)


def _check_adversary_gradient(objective, model):
    flat0 = get_flat_params(model).copy()

    def f(flat):
        set_flat_params(model, flat)
        value = objective()
        set_flat_params(model, flat0)
        return value

    numeric = numeric_gradient(f, flat0)
    return numeric


def test_fairness_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    adv = new_fairness_adversary(2, seed=12)
    yhat = rng.uniform(0.1, 0.9, 12)
    z = rng.integers(0, 2, 12)
    w = rng.uniform(0.3, 2.0, 12)
    s = np.zeros(12, dtype=int)
    rows = fairness_rows(z, s)
    ev = fairness_objective({0: adv}, rows, yhat, w)
    numeric = _check_adversary_gradient(
        lambda: fairness_objective({0: adv}, rows, yhat, w).value, adv)
    analytic = flatten_grads(ev.head_grads[0])
    assert np.abs(analytic - numeric).max() < 1e-6
    # Gradient through the predictions.
    def f_pred(flat):
        return fairness_objective({0: adv}, rows, flat, w).value

    numeric_pred = numeric_gradient(f_pred, yhat)
    assert np.abs(ev.prediction_grad - numeric_pred).max() < 1e-6


def test_robustness_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    adv = new_robustness_adversary(2, 2, 4, seed=14)
    x_tr = rng.normal(size=(7, 2))
    z_tr = rng.integers(0, 2, 7)
    yhat = rng.uniform(0.2, 0.8, 7)
    x_va = rng.normal(size=(5, 2))
    z_va = rng.integers(0, 2, 5)
    y_va = rng.integers(0, 2, 5)
    rows = robustness_rows(adv, Dataset(x_tr, z_tr, np.arange(7) % 2), Dataset(x_va, z_va, y_va))
    ev = robustness_objective(adv, rows, yhat)
    numeric = _check_adversary_gradient(
        lambda: robustness_objective(adv, rows, yhat).value, adv)
    analytic = flatten_grads(ev.grads)
    assert np.abs(analytic - numeric).max() < 1e-6

    def f_pred(flat):
        return robustness_objective(adv, rows, flat).value

    numeric_pred = numeric_gradient(f_pred, yhat)
    assert np.abs(ev.prediction_grad - numeric_pred).max() < 1e-6


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_fairness_objective_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    adv = new_fairness_adversary(2, seed=15)
    yhat = rng.uniform(0.05, 0.95, 10)
    z = rng.integers(0, 2, 10)
    if len(set(z.tolist())) < 2:
        z[0], z[1] = 0, 1
    w = rng.uniform(0.1, 2.0, 10)
    s = np.zeros(10, dtype=int)
    base = fairness_objective({0: adv}, fairness_rows(z, s), yhat, w).value
    order = rng.permutation(10)
    permuted = fairness_objective({0: adv}, fairness_rows(z[order], s), yhat[order],
                                  w[order]).value
    assert permuted == pytest.approx(base, rel=1e-12)

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrobust.nnet import (
    Gradients,
    MLPModel,
    MLPSpec,
    TrainingDivergedError,
    _column_sum,
    _row_reduce,
    _sigmoid,
    _softmax,
    adam_step,
    backward,
    clip_probs,
    forward,
    forward_with_cache,
    init_model,
    init_optimizer,
    load_model,
    save_model,
    sgd_step,
    weighted_cross_entropy,
    weighted_cross_entropy_grad,
)
from gradcheck import flatten_grads, get_flat_params, numeric_gradient, set_flat_params


def _zeroed(spec):
    model = init_model(spec, seed=0)
    for p in model.weights + model.biases:
        p[...] = 0.0
    return model


def test_zero_weight_sigmoid_outputs_half():
    model = _zeroed(MLPSpec(input_dim=3, hidden_dim=0, output_dim=1))
    out = forward(model, np.random.default_rng(0).normal(size=(5, 3)))
    assert np.allclose(out, 0.5)


def test_softmax_equal_logits_uniform():
    model = _zeroed(MLPSpec(input_dim=2, hidden_dim=0, output_dim=4))
    out = forward(model, [[1.0, -2.0]])
    assert np.allclose(out, 0.25)


def test_softmax_rows_sum_to_one():
    model = init_model(MLPSpec(input_dim=3, hidden_dim=4, output_dim=5), seed=1)
    out = forward(model, np.random.default_rng(1).normal(size=(20, 3)))
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
    assert out.min() >= 0


def test_sigmoid_strictly_inside_unit_interval():
    model = init_model(MLPSpec(input_dim=1, hidden_dim=0, output_dim=1), seed=2)
    out = forward(model, np.array([[-1e6], [0.0], [1e6]]))
    assert out.min() > 0 and out.max() < 1


def test_two_layer_forward_matches_hand_computation():
    spec = MLPSpec(input_dim=2, hidden_dim=2, output_dim=1)
    model = _zeroed(spec)
    model.weights[0][...] = [[1.0, -1.0], [0.5, 2.0]]
    model.biases[0][...] = [0.1, -0.2]
    model.weights[1][...] = [[2.0], [-1.0]]
    model.biases[1][...] = [0.3]
    x = np.array([[1.0, 2.0]])
    # hidden pre: [1*1+2*0.5+0.1, 1*-1+2*2-0.2] = [2.1, 2.8]; relu keeps both
    # logit: 2.1*2 - 2.8 + 0.3 = 1.7
    expected = 1.0 / (1.0 + math.exp(-1.7))
    assert forward(model, x)[0, 0] == pytest.approx(expected, abs=1e-12)


def test_dimension_mismatch_raises():
    model = init_model(MLPSpec(input_dim=3, hidden_dim=0, output_dim=1), seed=0)
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 4)))


def test_wce_half_probability():
    assert weighted_cross_entropy([0.5], [1]) == pytest.approx(math.log(2))
    assert weighted_cross_entropy([0.5], [0]) == pytest.approx(math.log(2))


def test_wce_zero_weight_contributes_nothing():
    with_zero = weighted_cross_entropy([0.9, 0.01], [1, 1], [1.0, 0.0])
    alone = weighted_cross_entropy([0.9], [1]) / 2  # same normalizer m=2
    assert with_zero == pytest.approx(alone * 2 / 2)
    assert with_zero == pytest.approx(-math.log(0.9) / 2)


def test_wce_hand_computed_batch():
    value = weighted_cross_entropy([0.9, 0.2], [1, 0], [1.0, 2.0])
    assert value == pytest.approx(0.27582, abs=1e-5)


@pytest.mark.parametrize("labels, weights", [([1], None), ([1, 0], None),
                                             ([1, 0, 1], [1.0]), ([1, 0, 1], [1.0, 2.0])])
def test_wce_rejects_labels_or_weights_of_another_length(labels, weights):
    # One label or weight must not broadcast over every row.
    for loss in (weighted_cross_entropy, weighted_cross_entropy_grad):
        with pytest.raises(ValueError, match="equal length"):
            loss([0.2, 0.7, 0.9], labels, weights)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 0.99), st.integers(0, 1),
                          st.floats(0.0, 3.0)), min_size=1, max_size=30),
       st.randoms())
def test_wce_permutation_invariant(rows, rnd):
    p = [a for a, _, _ in rows]
    y = [b for _, b, _ in rows]
    w = [c for _, _, c in rows]
    base = weighted_cross_entropy(p, y, w)
    order = list(range(len(rows)))
    rnd.shuffle(order)
    shuffled = weighted_cross_entropy([p[i] for i in order], [y[i] for i in order],
                                      [w[i] for i in order])
    assert shuffled == pytest.approx(base, rel=1e-12)


def test_zero_upstream_gradient_gives_zero_grads_and_sgd_identity():
    model = init_model(MLPSpec(input_dim=2, hidden_dim=3, output_dim=1), seed=3)
    cache = forward_with_cache(model, np.random.default_rng(0).normal(size=(4, 2)))
    grads = backward(model, cache, np.zeros_like(cache.output))
    assert all(np.all(g == 0) for g in grads.weights + grads.biases)
    before = get_flat_params(model).copy()
    sgd_step(model, grads, 0.1)
    assert np.array_equal(get_flat_params(model), before)


def test_adam_zero_gradient_noop():
    model = init_model(MLPSpec(input_dim=2, hidden_dim=0, output_dim=1), seed=4)
    state = init_optimizer(0.1, model)
    before = get_flat_params(model).copy()
    zero = Gradients([np.zeros_like(w) for w in model.weights],
                     [np.zeros_like(b) for b in model.biases], np.zeros((1, 2)))
    adam_step(model, zero, state)
    assert np.array_equal(get_flat_params(model), before)


def test_nonfinite_gradient_raises():
    model = init_model(MLPSpec(input_dim=2, hidden_dim=0, output_dim=1), seed=4)
    bad = Gradients([np.full_like(model.weights[0], np.inf)],
                    [np.zeros_like(model.biases[0])], np.zeros((1, 2)))
    with pytest.raises(TrainingDivergedError):
        sgd_step(model, bad, 0.1)


def test_adam_step_matches_hand_update():
    model = _zeroed(MLPSpec(input_dim=1, hidden_dim=0, output_dim=1))
    state = init_optimizer(0.1, model)
    g = Gradients([np.array([[2.0]])], [np.array([0.0])], np.zeros((1, 1)))
    adam_step(model, g, state)
    # t=1: m_hat = 2, v_hat = 4 -> step = lr * 2 / (2 + eps) ~ lr
    assert model.weights[0][0, 0] == pytest.approx(-0.1, rel=1e-6)


def _loss_through_params(model, x, y, w):
    def f(flat):
        probe = MLPModel(model.spec, [p.copy() for p in model.weights],
                         [b.copy() for b in model.biases])
        set_flat_params(probe, flat)
        return weighted_cross_entropy(forward(probe, x).ravel(), y, w)

    return f


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    spec = MLPSpec(input_dim=2, hidden_dim=4, output_dim=1)
    model = init_model(spec, seed=6)
    x = rng.normal(size=(8, 2))
    y = rng.integers(0, 2, 8)
    w = rng.uniform(0.2, 2.0, 8)
    cache = forward_with_cache(model, x)
    _, d_p = weighted_cross_entropy_grad(cache.output.ravel(), y, w)
    analytic = flatten_grads(backward(model, cache, d_p[:, None]))
    numeric = numeric_gradient(_loss_through_params(model, x, y, w),
                               get_flat_params(model))
    denom = np.maximum(np.abs(numeric), 1e-6)
    assert (np.abs(analytic - numeric) / denom).max() < 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    model = init_model(MLPSpec(input_dim=3, hidden_dim=4, output_dim=1), seed=8)
    x0 = rng.normal(size=(1, 3))

    def f(flat):
        return float(forward(model, flat.reshape(1, 3))[0, 0])

    cache = forward_with_cache(model, x0)
    grads = backward(model, cache, np.ones_like(cache.output))
    numeric = numeric_gradient(f, x0.ravel())
    assert np.allclose(grads.inputs.ravel(), numeric, atol=1e-6)


def test_hidden_layer_gradients_through_a_reused_cache_match_finite_differences():
    # The activation and the hidden-layer gradient are computed in place, in
    # buffers that an earlier pass over other rows already filled.
    rng = np.random.default_rng(14)
    model = init_model(MLPSpec(input_dim=3, hidden_dim=5, output_dim=1), seed=15)
    x = rng.normal(size=(9, 3))
    y, w = rng.integers(0, 2, 9), rng.uniform(0.2, 2.0, 9)
    stale = forward_with_cache(model, rng.normal(size=(9, 3)))
    backward(model, stale, np.ones_like(stale.output))
    cache = forward_with_cache(model, x, stale)
    assert cache.hidden is stale.hidden and cache.work is stale.work
    _, d_p = weighted_cross_entropy_grad(cache.output.ravel(), y, w)
    grads = backward(model, cache, d_p[:, None])
    numeric = numeric_gradient(_loss_through_params(model, x, y, w), get_flat_params(model))
    assert np.abs(flatten_grads(grads) - numeric).max() < 1e-7

    def loss_through_inputs(flat):
        return weighted_cross_entropy(forward(model, flat.reshape(x.shape)).ravel(), y, w)

    numeric_x = numeric_gradient(loss_through_inputs, x.ravel())
    assert np.abs(grads.inputs.ravel() - numeric_x).max() < 1e-7


def _bits_equal(a, b):
    """Equal values, NaN included, and equal signs of zero."""
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("k", range(1, 8))
def test_softmax_column_reductions_equal_row_reductions_bit_for_bit(k):
    rng = np.random.default_rng(100 + k)
    n = 400
    x = rng.normal(scale=rng.choice([1.0, 30.0, 300.0], size=(n, 1)), size=(n, k))
    d = rng.normal(scale=rng.choice([1e-10, 1.0, 1e10], size=(n, 1)), size=(n, k))
    for a, value in ((x, -0.0), (x, 0.0), (x, 700.0), (x, -700.0), (d, -0.0), (d, 0.0)):
        a[rng.random(a.shape) < 0.1] = value
    x[:20], d[:20] = -0.0, -0.0  # rows of negative zeros only
    for a in (x, d, d * _softmax(x)):
        assert _bits_equal(_row_reduce(np.maximum, a, -np.inf), a.max(axis=1))
        assert _bits_equal(_row_reduce(np.add, a, 0.0), a.sum(axis=1))

    shifted = x - x.max(axis=1, keepdims=True)
    p_old = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    assert _bits_equal(_softmax(x), p_old)

    if k == 1:
        return  # a network with one output is a sigmoid
    model = init_model(MLPSpec(input_dim=3, hidden_dim=0, output_dim=k), seed=k)
    cache = forward_with_cache(model, rng.normal(size=(n, 3)))
    cache.raw_output = cache.output = p_old
    d_logits = p_old * (d - (d * p_old).sum(axis=1, keepdims=True))
    grads = backward(model, cache, d)
    assert _bits_equal(grads.weights[0], cache.x.T @ d_logits)
    assert _bits_equal(grads.biases[0], d_logits.sum(axis=0))
    assert _bits_equal(grads.inputs, d_logits @ model.weights[0].T)


def _mixed(rng, shape):
    """Normal values on row scales from 1e-10 to 1e10, with signed zeros mixed in."""
    a = rng.normal(scale=rng.choice([1e-10, 1.0, 1e10], size=(shape[0], 1)), size=shape)
    a[rng.random(shape) < 0.1] = -0.0
    a[rng.random(shape) < 0.1] = 0.0
    return a


@pytest.mark.parametrize("k", range(1, 9))
def test_column_sum_equals_numpy_sum_bit_for_bit(k):
    rng = np.random.default_rng(200 + k)
    for n in (1, 7, 200, 1600, 3200):
        a = _mixed(rng, (n, k))
        if k > 1:
            a[:, -1] = -0.0  # a column of negative zeros only
        assert _column_sum(a).tobytes() == a.sum(axis=0).tobytes()


def _numpy_reference(model, x, d_out):
    """A hidden-layer network's output, activations and gradients as plain numpy expressions."""
    (w1, w2), (b1, b2) = model.weights, model.biases
    hidden = x @ w1
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ w2 + b2
    if model.spec.output_dim == 1:
        raw = _sigmoid(logits)
        out = clip_probs(raw)
        d_logits = d_out * raw * (1.0 - raw)
    else:
        out = raw = _softmax(logits)
        d_logits = raw * (d_out - (d_out * raw).sum(axis=1, keepdims=True))
    d_pre = d_logits @ w2.T
    d_pre *= hidden > 0
    grads = [x.T @ d_pre, hidden.T @ d_logits, d_pre.sum(axis=0), d_logits.sum(axis=0),
             d_pre @ w1.T]
    return out, hidden, grads


@pytest.mark.parametrize("output_dim", [1, 3])
@pytest.mark.parametrize("n", [7, 200, 3200, 16000])
def test_hidden_layer_passes_equal_the_numpy_reference_bit_for_bit(n, output_dim):
    rng = np.random.default_rng(n + output_dim)
    model = init_model(MLPSpec(input_dim=5, hidden_dim=8, output_dim=output_dim), seed=n)
    model.biases[0][...] = rng.normal(scale=0.5, size=8)
    model.biases[1][...] = rng.normal(scale=0.5, size=output_dim)
    model.weights[1][2] = -0.0  # zero products in dLoss/dHidden
    x = _mixed(rng, (n, 5))
    d_out = _mixed(rng, (n, output_dim))
    out, hidden, want = _numpy_reference(model, x, d_out)

    def check(cache):
        assert cache.output.tobytes() == out.tobytes()
        assert cache.hidden.tobytes() == hidden.tobytes()
        g = backward(model, cache, d_out)
        got = [g.weights[0], g.weights[1], g.biases[0], g.biases[1], g.inputs]
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()
        return cache

    check(forward_with_cache(model, x))
    # Reused buffers that held another pass's values.
    cache = check(forward_with_cache(model, x, forward_with_cache(model, _mixed(rng, (n, 5)))))
    with pytest.raises(ValueError):  # a reused cache covers as many rows as it was made for
        forward_with_cache(model, x[:1], cache)


def _masked_sigmoid(x):
    """The boolean-mask form: each branch evaluated on its own rows only."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_masked_form_bit_for_bit():
    special = np.array([0.0, -0.0, 800.0, -800.0, np.nan, 36.0, -36.0, 1e-300, -1e-300])
    rng = np.random.default_rng(11)
    for x in (special, rng.normal(scale=6.0, size=(3200, 1)), rng.normal(size=(40, 3))):
        got, want = _sigmoid(x), _masked_sigmoid(x)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("spec", [
    MLPSpec(input_dim=3, hidden_dim=0, output_dim=1),
    MLPSpec(input_dim=3, hidden_dim=8, output_dim=1),
    MLPSpec(input_dim=3, hidden_dim=5, output_dim=3),
    MLPSpec(input_dim=1, hidden_dim=0, output_dim=3),
])
def test_backward_without_input_grad_keeps_parameter_grads(spec):
    rng = np.random.default_rng(12)
    model = init_model(spec, seed=13)
    cache = forward_with_cache(model, rng.normal(size=(64, spec.input_dim)))
    d_out = rng.normal(size=cache.output.shape)
    full = backward(model, cache, d_out)
    lean = backward(model, cache, d_out, input_grad=False)
    assert lean.inputs is None and full.inputs.shape == (64, spec.input_dim)
    for got, want in zip(lean.weights + lean.biases, full.weights + full.biases):
        assert np.array_equal(got, want)


def test_model_json_round_trip(tmp_path):
    model = init_model(MLPSpec(input_dim=3, hidden_dim=5, output_dim=2), seed=9)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.spec == model.spec
    for a, b in zip(back.weights + back.biases, model.weights + model.biases):
        assert np.array_equal(a, b)


def _old_format_payload(model, hidden_activation, output_activation, **extra):
    """A model file as written while the activations were spec fields."""
    spec = {"input_dim": model.spec.input_dim, "hidden_dim": model.spec.hidden_dim,
            "output_dim": model.spec.output_dim, "hidden_activation": hidden_activation,
            "output_activation": output_activation, **extra}
    return {"spec": spec, "weights": [w.tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases]}


@pytest.mark.parametrize("spec, output_activation", [
    (MLPSpec(input_dim=4), "sigmoid"),  # the generator
    (MLPSpec(input_dim=1, output_dim=2), "softmax"),  # a 2-group fairness head
    (MLPSpec(input_dim=5, hidden_dim=8), "sigmoid"),  # the robustness adversary
])
def test_old_model_files_load_to_the_same_model(tmp_path, spec, output_activation):
    model = init_model(spec, seed=16)
    for b in model.biases:
        b[...] = np.random.default_rng(17).normal(size=b.shape)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_old_format_payload(model, "relu", output_activation)))
    back = load_model(path)
    assert back.spec == spec
    x = np.random.default_rng(18).normal(size=(50, spec.input_dim))
    assert np.array_equal(forward(back, x), forward(model, x))


@pytest.mark.parametrize("output_dim, hidden, output, extra, message", [
    (1, "tanh", "sigmoid", {}, "hidden_activation 'tanh'"),
    (2, "relu", "sigmoid", {}, "output_activation 'sigmoid' is not supported for output_dim 2"),
    (1, "relu", "softmax", {}, "output_activation 'softmax' is not supported for output_dim 1"),
    (1, "relu", "sigmoid", {"dropout": 0.5}, "unknown model spec key 'dropout' = 0.5"),
])
def test_old_model_files_that_would_change_meaning_are_rejected(tmp_path, output_dim, hidden,
                                                                 output, extra, message):
    model = init_model(MLPSpec(input_dim=2, hidden_dim=3, output_dim=output_dim), seed=19)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_old_format_payload(model, hidden, output, **extra)))
    with pytest.raises(ValueError, match=message):
        load_model(path)

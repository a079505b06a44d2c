import copy
import hashlib
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrobust.nnet import (
    Gradients,
    MLPModel,
    MLPSpec,
    TrainingDivergedError,
    _sigmoid,
    _softmax,
    adam_step,
    backward,
    clip_probs,
    forward,
    forward_with_cache,
    init_model,
    init_optimizer,
    sgd_step,
)
from fairrobust.trainer import load_model, predict, save_model
from gradcheck import (
    flatten_grads,
    get_flat_params,
    numeric_gradient,
    set_flat_params,
    weighted_cross_entropy,
    weighted_cross_entropy_grad,
)


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


def _numpy_reference(model, x, d_out):
    """A network's output, hidden layer (None for a linear model) and gradients
    (weights, biases, inputs) as plain row-major numpy expressions."""
    hidden, inputs = None, x
    if model.spec.hidden_dim:
        hidden = x @ model.weights[0]
        hidden += model.biases[0]
        np.maximum(hidden, 0.0, out=hidden)
        inputs = hidden
    logits = inputs @ model.weights[-1] + model.biases[-1]
    if model.spec.output_dim == 1:
        raw = _sigmoid(logits)
        out = clip_probs(raw)
        d_logits = d_out * raw * (1.0 - raw)
    else:
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        out = raw = e / e.sum(axis=1, keepdims=True)
        d_logits = raw * (d_out - (d_out * raw).sum(axis=1, keepdims=True))
    if hidden is None:
        return out, None, [x.T @ d_logits, d_logits.sum(axis=0), d_logits @ model.weights[0].T]
    (w1, w2) = model.weights
    d_pre = d_logits @ w2.T
    d_pre *= hidden > 0
    grads = [x.T @ d_pre, hidden.T @ d_logits, d_pre.sum(axis=0), d_logits.sum(axis=0),
             d_pre @ w1.T]
    return out, hidden, grads


def _assert_rounding_close(got, want):
    """Within 1e-12 relative; an entry whose sum cancels to far below the
    array's largest magnitude is held to 1e-14 of that magnitude instead."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("input_grad", [True, False], ids=["input_grad", "no_input_grad"])
@pytest.mark.parametrize("hidden_dim", [0, 8])
@pytest.mark.parametrize("output_dim", [1, 2, 8])
def test_feature_major_passes_agree_with_the_numpy_reference(output_dim, hidden_dim, input_grad):
    # The passes run on (units, rows) memory, so their sums add in another
    # order than the row-major reference's: they agree to rounding, not bits.
    rng = np.random.default_rng(10 * output_dim + hidden_dim)
    spec = MLPSpec(input_dim=5, hidden_dim=hidden_dim, output_dim=output_dim)
    model = init_model(spec, seed=output_dim + hidden_dim)
    for b in model.biases:
        b[...] = rng.normal(scale=0.5, size=b.shape)
    model.weights[-1][0] = -0.0  # zero products in the backward pass
    for n in (7, 200, 3200, 16000):
        x, d_out = rng.normal(size=(n, 5)), rng.normal(size=(n, output_dim))
        x[rng.random(x.shape) < 0.1] = -0.0
        out, hidden, want = _numpy_reference(model, x, d_out)
        stale = forward_with_cache(model, rng.normal(size=(n, 5)))
        for cache in (forward_with_cache(model, x), forward_with_cache(model, x, stale)):
            assert forward(model, x).shape == (n, output_dim)
            _assert_rounding_close(cache.output, out)
            if hidden_dim:
                _assert_rounding_close(cache.hidden, hidden)
            grads = backward(model, cache, d_out, input_grad=input_grad)
            got = grads.weights + grads.biases + [grads.inputs]
            for a, b in zip(got[:-1], want[:-1], strict=True):
                _assert_rounding_close(a, b)
            if input_grad:
                _assert_rounding_close(grads.inputs, want[-1])
            else:
                assert grads.inputs is None
        if output_dim == 1:
            assert predict(model, x).shape == (n,)
    if hidden_dim:
        with pytest.raises(ValueError):  # a reused cache covers as many rows as it was made for
            forward_with_cache(model, x[:1], stale)


def test_save_model_bytes_are_unchanged(tmp_path):
    # The file format is rows-first (fan_in, fan_out) weights, whatever the
    # passes' memory layout; the digest was recorded before the layout changed.
    model = init_model(MLPSpec(input_dim=3, hidden_dim=8, output_dim=2), seed=31)
    model.biases[0][...] = np.linspace(-1.0, 1.0, 8)
    model.biases[1][...] = [0.25, -0.5]
    save_model(model, tmp_path / "model.json")
    digest = hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()
    assert digest == "7d1281ef968ad28ac2acb477b22e116cb9ca2852c77ab4c9663b646c56a09edb"


def _bits_equal(a, b):
    """Equal values, NaN included, and equal signs of zero."""
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _feature_major(a):
    """``a`` as a (rows, units) view of (units, rows) memory, the passes' layout."""
    return np.ascontiguousarray(a.T).T


@pytest.mark.parametrize("k", range(1, 8))
def test_softmax_column_reductions_equal_row_reductions_bit_for_bit(k):
    # Feature-major passes reduce a softmax's k units down the columns of
    # (units, rows) memory; for up to 7 units that has the bits of numpy's
    # row reductions of rows-first memory, so the outputs and the softmax
    # gradient are those of the textbook row-major expressions.
    rng = np.random.default_rng(100 + k)
    n = 400
    x = rng.normal(scale=rng.choice([1.0, 30.0, 300.0], size=(n, 1)), size=(n, k))
    d = rng.normal(scale=rng.choice([1e-10, 1.0, 1e10], size=(n, 1)), size=(n, k))
    for a, value in ((x, -0.0), (x, 0.0), (x, 700.0), (x, -700.0), (d, -0.0), (d, 0.0)):
        a[rng.random(a.shape) < 0.1] = value
    x[:20], d[:20] = -0.0, -0.0  # rows of negative zeros only
    shifted = x - x.max(axis=1, keepdims=True)
    p_old = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    for a in (x, d, d * p_old):
        assert _bits_equal(_feature_major(a).max(axis=1), a.max(axis=1))
        assert _bits_equal(_feature_major(a).sum(axis=1), a.sum(axis=1))
    assert _bits_equal(_softmax(_feature_major(x)), p_old)

    if k == 1:
        return  # a network with one output is a sigmoid
    model = init_model(MLPSpec(input_dim=3, hidden_dim=0, output_dim=k), seed=k)
    cache = forward_with_cache(model, rng.normal(size=(n, 3)))
    cache.raw_output = cache.output = _feature_major(p_old)
    d_logits = _feature_major(p_old * (d - (d * p_old).sum(axis=1, keepdims=True)))
    grads = backward(model, cache, _feature_major(d))
    assert _bits_equal(grads.weights[0], cache.x.T @ d_logits)
    assert _bits_equal(grads.biases[0], d_logits.sum(axis=0))
    assert _bits_equal(grads.inputs, (model.weights[0] @ d_logits.T).T)


def _mixed(rng, shape):
    """Normal values on row scales from 1e-10 to 1e10, with signed zeros mixed in."""
    a = rng.normal(scale=rng.choice([1e-10, 1.0, 1e10], size=(shape[0], 1)), size=shape)
    a[rng.random(shape) < 0.1] = -0.0
    a[rng.random(shape) < 0.1] = 0.0
    return a


def _feature_major_reference(model, x, d_out):
    """A hidden-layer network's output, activations and gradients as plain
    numpy expressions on (units, rows) arrays, returned rows-first."""
    (w1, w2), (b1, b2) = model.weights, model.biases
    hidden = w1.T @ x.T
    hidden += b1[:, None]
    np.maximum(hidden, 0.0, out=hidden)
    logits = w2.T @ hidden + b2[:, None]
    d_out = d_out.T
    if model.spec.output_dim == 1:
        raw = _sigmoid(logits)
        out = clip_probs(raw)
        d_logits = d_out * raw * (1.0 - raw)
    else:
        e = np.exp(logits - logits.max(axis=0))
        out = raw = e / e.sum(axis=0)
        d_logits = raw * (d_out - (d_out * raw).sum(axis=0))
    d_pre = w2 @ d_logits
    d_pre *= hidden > 0
    grads = [x.T @ d_pre.T, hidden @ d_logits.T, d_pre.sum(axis=1), d_logits.sum(axis=1),
             (w1 @ d_pre).T]
    return out.T, hidden.T, grads


@pytest.mark.parametrize("output_dim", [1, 3])
@pytest.mark.parametrize("n", [7, 200, 3200, 16000])
def test_hidden_layer_passes_equal_the_numpy_reference_bit_for_bit(n, output_dim):
    # The reference is the feature-major one, with the upstream gradient in
    # (units, rows) memory as the adversaries hand it over: the passes'
    # buffers, in-place steps and outer-product shortcut must leave exactly
    # its bits, on fresh and on reused buffers.
    rng = np.random.default_rng(n + output_dim)
    model = init_model(MLPSpec(input_dim=5, hidden_dim=8, output_dim=output_dim), seed=n)
    model.biases[0][...] = rng.normal(scale=0.5, size=8)
    model.biases[1][...] = rng.normal(scale=0.5, size=output_dim)
    model.weights[1][2] = -0.0  # zero products in dLoss/dHidden
    x = _mixed(rng, (n, 5))
    d_out = _feature_major(_mixed(rng, (n, output_dim)))
    out, hidden, want = _feature_major_reference(model, x, d_out)

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


@pytest.mark.parametrize("output_dim, edit, key", [
    (1, lambda payload: payload["spec"].update(hidden_activation="tanh"), "spec.hidden_activation"),
    (1, lambda payload: payload["spec"].update(output_activation="softmax"),
     "spec.output_activation"),
    (2, lambda payload: payload["spec"].update(output_activation="sigmoid"),
     "spec.output_activation"),
    (1, lambda payload: payload["spec"].update(dropout=0.5), "spec.dropout"),
    (1, lambda payload: payload.update(optimizer="adam"), "optimizer"),
], ids=["hidden_activation", "output_activation", "output_activation_2_groups", "dropout",
        "top_level"])
def test_model_file_keys_that_save_model_never_writes_are_rejected(tmp_path, output_dim, edit,
                                                                    key):
    path = tmp_path / "model.json"
    save_model(init_model(MLPSpec(input_dim=2, hidden_dim=3, output_dim=output_dim), seed=19),
               path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^unknown config keys: {re.escape(key)}$"):
        load_model(path)


@pytest.mark.parametrize("weights, biases", [
    ([np.zeros((3, 4)), np.zeros((4, 1))], [np.zeros(4), np.zeros(1)]),  # the first fan_in
    ([np.zeros((2, 4)), np.zeros((4, 1))], [np.zeros(4), np.zeros((1, 1))]),  # a 2-d bias
    ([np.zeros((2, 4))], [np.zeros(4)]),  # no output layer
    ([np.zeros((2, 4))], [np.zeros(4), np.zeros(1)]),  # an output bias without its weights
], ids=["weight", "bias", "missing_layer", "missing_weight"])
def test_model_rejects_parameter_shapes_that_do_not_fit_its_spec(weights, biases):
    spec = MLPSpec(input_dim=2, hidden_dim=4, output_dim=1)
    MLPModel(spec, [np.zeros((2, 4)), np.zeros((4, 1))], [np.zeros(4), np.zeros(1)])  # fits
    with pytest.raises(ValueError, match=r"^weight and bias shapes .* do not fit MLPSpec"):
        MLPModel(spec, weights, biases)


# The three kinds of network that training steps: the generator, a 2-group
# fairness head and the robustness adversary (4 parameter arrays).
STEPPED_SPECS = [MLPSpec(input_dim=11), MLPSpec(input_dim=1, output_dim=2),
                 MLPSpec(input_dim=12, hidden_dim=8)]


def _constructed(spec, how, tmp_path):
    model = init_model(spec, seed=20)
    if how == "load_model":
        save_model(model, tmp_path / "model.json")
        return load_model(tmp_path / "model.json")
    if how == "MLPModel":
        return MLPModel(spec, [w.tolist() for w in model.weights], [b.copy() for b in model.biases])
    if how == "pickle":
        return pickle.loads(pickle.dumps(model))
    if how == "deepcopy":
        return copy.deepcopy(model)
    return model


@pytest.mark.parametrize("spec", STEPPED_SPECS)
@pytest.mark.parametrize("how", ["init_model", "load_model", "MLPModel", "pickle", "deepcopy"])
def test_weights_and_biases_are_views_into_one_parameter_vector(tmp_path, spec, how):
    model = _constructed(spec, how, tmp_path)
    want = init_model(spec, seed=20)
    arrays = model.weights + model.biases
    assert len(model.weights) == len(model.biases) == (2 if spec.hidden_dim else 1)
    assert model.params.dtype == np.float64 and model.params.ndim == 1
    assert np.array_equal(model.params, np.concatenate([p.ravel() for p in arrays]))
    for got, expected in zip(arrays, want.weights + want.biases, strict=True):
        assert got.shape == expected.shape and np.array_equal(got, expected)
        assert np.shares_memory(got, model.params)
    model.params[-1] += 1.0  # a step over the vector moves the views
    assert model.biases[-1][-1] == want.biases[-1][-1] + 1.0


def _reference_sgd(params, grads, step):
    for p, g in zip(params, grads):
        p -= step * g


def _reference_adam(params, grads, m, v, t, lr):
    """The per-array Adam step of the textbook form."""
    b1, b2 = 0.9, 0.999
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = b1 * m[i] + (1 - b1) * g
        v[i] = b2 * v[i] + (1 - b2) * g**2
        m_hat = m[i] / (1 - b1**t)
        v_hat = v[i] / (1 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


@pytest.mark.parametrize("spec", STEPPED_SPECS)
def test_optimizer_steps_equal_a_per_array_reference_bit_for_bit(spec):
    rng = np.random.default_rng(21)
    sgd_model, adam_model = init_model(spec, seed=22), init_model(spec, seed=22)
    ref_sgd = [p.copy() for p in sgd_model.weights + sgd_model.biases]
    ref_adam = [p.copy() for p in ref_sgd]
    m, v = [np.zeros_like(p) for p in ref_adam], [np.zeros_like(p) for p in ref_adam]
    state = init_optimizer(0.01, adam_model)
    for t in range(1, 6):
        x = rng.normal(size=(40, spec.input_dim))
        d_out = rng.normal(size=(40, spec.output_dim)) * 10.0**rng.integers(-3, 3)
        grads = backward(sgd_model, forward_with_cache(sgd_model, x), d_out, input_grad=False)
        arrays = grads.weights + grads.biases
        sgd_step(sgd_model, grads, -0.05)
        _reference_sgd(ref_sgd, arrays, -0.05)
        adam_step(adam_model, grads, state)
        _reference_adam(ref_adam, arrays, m, v, t, 0.01)
        for model, ref in ((sgd_model, ref_sgd), (adam_model, ref_adam)):
            assert get_flat_params(model).tobytes() == get_flat_params(
                MLPModel(spec, ref[:len(model.weights)], ref[len(model.weights):])).tobytes()
        assert state.m.tobytes() == np.concatenate([a.ravel() for a in m]).tobytes()
        assert state.v.tobytes() == np.concatenate([a.ravel() for a in v]).tobytes()
        assert state.t == t


@pytest.mark.parametrize("spec", STEPPED_SPECS)
def test_nonfinite_gradient_changes_no_parameter_or_moment(spec):
    rng = np.random.default_rng(23)
    model = init_model(spec, seed=24)
    state = init_optimizer(0.01, model)
    cache = forward_with_cache(model, rng.normal(size=(30, spec.input_dim)))
    adam_step(model, backward(model, cache, rng.normal(size=cache.output.shape)), state)
    bad = backward(model, cache, rng.normal(size=cache.output.shape))
    bad.biases[-1][-1] = np.nan  # only the last parameter's gradient
    before = (model.params.copy(), state.m.copy(), state.v.copy(), state.t)
    for step in (lambda: sgd_step(model, bad, 0.1), lambda: adam_step(model, bad, state)):
        with pytest.raises(TrainingDivergedError):
            step()
        after = (model.params, state.m, state.v, state.t)
        assert all(np.array_equal(a, b) for a, b in zip(before[:3], after[:3]))
        assert state.t == before[3]

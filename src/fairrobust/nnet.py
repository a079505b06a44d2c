"""Micro neural-net core: 0/1-hidden-layer networks, hand-written backprop, SGD/Adam.

Everything is float64 numpy and fully deterministic given a seed. Models are
small (a handful of units), so all passes are full matrix ops with no batching
machinery beyond what the caller supplies.

One kind of network: an optional ReLU hidden layer, then a sigmoid output
(clamped into (0, 1)) for one output or a softmax for two or more, so the
spec holds only the three widths. Adam's betas and epsilon are the constants
below.

Buffers: a forward pass computes the hidden layer in place in one (n, hidden)
array, and ``backward`` computes dLoss/dHidden and then dLoss/dPre-activation
in place in a second one; both live on the ``ForwardCache``. A caller that
runs many passes over the same rows hands its earlier cache back to
``forward_with_cache``, which then writes into those two buffers instead of
allocating new ones. At a few thousand rows each buffer is larger than the C
allocator's mmap threshold, so a fresh one per pass is mapped, faulted in page
by page and unmapped again.

Narrow arrays: the models are a few units wide, and numpy's generic loops over
an (n, k) array with k < 8 run an inner loop only k long. The passes below
take other routes to the same bits:

* Softmax rows are reduced column by column into one (n,) accumulator, which
  for fewer than 8 columns adds in the same order as numpy's row reduction.
* Column sums of a C-ordered array of 2 or more columns (the bias gradients of
  the hidden layer and of a softmax output) are ``np.einsum('ij->j', a)``,
  which like ``a.sum(axis=0)`` starts from +0.0 and adds the rows one by one.
  One column keeps ``.sum(axis=0)``: there numpy sums pairwise and ``einsum``
  does not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

PROB_EPS = 1e-7  # probability clamp bound applied before any log
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    """A loss or gradient became non-finite; training has diverged."""


@dataclass(frozen=True)
class MLPSpec:
    input_dim: int
    hidden_dim: int = 0  # 0 = linear model
    output_dim: int = 1  # 1 = sigmoid output, more = softmax

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1 or self.hidden_dim < 0:
            raise ValueError(f"bad dimensions in {self}")


@dataclass
class MLPModel:
    spec: MLPSpec
    weights: list[np.ndarray]  # per layer, shape (fan_in, fan_out)
    biases: list[np.ndarray]


def init_model(spec: MLPSpec, seed: int) -> MLPModel:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    dims = (
        [spec.input_dim, spec.output_dim]
        if spec.hidden_dim == 0
        else [spec.input_dim, spec.hidden_dim, spec.output_dim]
    )
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(spec, weights, biases)


def clip_probs(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _row_reduce(ufunc, a: np.ndarray, initial: float) -> np.ndarray:
    """``ufunc`` folded over the columns of ``a``, left to right, starting from ``initial``.

    numpy reduces a row shorter than 8 entries in this same order (a sum
    starts from +0.0), so for up to 7 columns the result has the bits of
    ``ufunc.reduce(a, axis=1)``.
    """
    acc = np.full(len(a), initial)
    for j in range(a.shape[1]):
        ufunc(acc, a[:, j], out=acc)
    return acc


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - _row_reduce(np.maximum, x, -np.inf)[:, None]
    e = np.exp(shifted)
    return e / _row_reduce(np.add, e, 0.0)[:, None]


def _column_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)`` of an (n, k) array, with the same bits."""
    if a.shape[1] > 1 and a.flags.c_contiguous:
        return np.einsum("ij->j", a)
    return a.sum(axis=0)


@dataclass
class ForwardCache:
    """What ``backward`` needs from one forward pass.

    ``hidden`` (the activations) and ``work`` (backward's dLoss/dHidden, then
    dLoss/dPre-activation) are (n, hidden_dim) buffers, None for a linear
    model. A forward pass that reuses this cache overwrites both.
    """

    x: np.ndarray
    hidden: np.ndarray | None
    work: np.ndarray | None
    raw_output: np.ndarray  # pre-clamp activations (probabilities)
    output: np.ndarray


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    inputs: np.ndarray | None  # None when the input gradient was not asked for


def forward_with_cache(model: MLPModel, x: np.ndarray,
                       reuse: ForwardCache | None = None) -> ForwardCache:
    """One forward pass, keeping what ``backward`` needs.

    With ``reuse``, an earlier cache of this model over as many rows, the
    hidden layer is computed in that cache's buffers, which the returned cache
    shares; ``reuse`` must not go to ``backward`` afterwards.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    spec = model.spec
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"input dim {x.shape[1]} != expected {spec.input_dim}")
    if spec.hidden_dim == 0:
        hidden = work = None
        logits = x @ model.weights[0] + model.biases[0]
    else:
        shape = (len(x), spec.hidden_dim)
        hidden, work = (np.empty(shape), np.empty(shape)) if reuse is None else (reuse.hidden, reuse.work)
        np.matmul(x, model.weights[0], out=hidden)
        hidden += model.biases[0]
        np.maximum(hidden, 0.0, out=hidden)
        logits = hidden @ model.weights[1] + model.biases[1]
    if spec.output_dim == 1:
        raw = _sigmoid(logits)
        out = clip_probs(raw)
    else:
        raw = _softmax(logits)
        out = raw
    return ForwardCache(x=x, hidden=hidden, work=work, raw_output=raw, output=out)


def forward(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Batch of output vectors; sigmoid outputs are clamped into (0, 1)."""
    return forward_with_cache(model, x).output


def backward(model: MLPModel, cache: ForwardCache, d_output: np.ndarray,
             input_grad: bool = True) -> Gradients:
    """Exact reverse-mode gradients given dLoss/dOutput.

    dLoss/dInput is returned as ``inputs`` when ``input_grad`` is set, and left
    as None otherwise; the parameter gradients are the same either way. The
    hidden-layer gradient is computed in ``cache.work``; every returned array
    is new.
    """
    spec = model.spec
    d_output = np.asarray(d_output, dtype=np.float64)
    if d_output.shape != cache.output.shape:
        raise ValueError("upstream gradient shape mismatch")
    p = cache.raw_output
    if spec.output_dim == 1:
        d_logits = d_output * p * (1.0 - p)
    else:
        d_logits = p * (d_output - _row_reduce(np.add, d_output * p, 0.0)[:, None])
    if spec.hidden_dim == 0:
        d_w = cache.x.T @ d_logits
        d_b = _column_sum(d_logits)
        d_x = d_logits @ model.weights[0].T if input_grad else None
        return Gradients([d_w], [d_b], d_x)
    d_w2 = cache.hidden.T @ d_logits
    d_b2 = _column_sum(d_logits)
    d_pre = np.matmul(d_logits, model.weights[1].T, out=cache.work)  # dLoss/dHidden, then in place:
    d_pre *= cache.hidden > 0  # the same mask as pre-activation > 0, NaN included
    d_w1 = cache.x.T @ d_pre
    d_b1 = _column_sum(d_pre)
    d_x = d_pre @ model.weights[0].T if input_grad else None
    return Gradients([d_w1, d_w2], [d_b1, d_b2], d_x)


def weighted_cross_entropy(probs, labels, weights=None) -> float:
    """(1/m) sum_i w_i * [-y_i log p_i - (1-y_i) log(1-p_i)], in nats.

    The normalizer is the batch size m, not the weight total.
    """
    return weighted_cross_entropy_grad(probs, labels, weights)[0]


def weighted_cross_entropy_grad(probs, labels, weights=None) -> tuple[float, np.ndarray]:
    """Loss value and dLoss/dProbs (a length-m vector); one label and weight per row."""
    p = clip_probs(np.asarray(probs, dtype=np.float64).reshape(-1))
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    m = len(p)
    w = np.ones_like(p) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    if len(y) != m or len(w) != m:
        raise ValueError("probs, labels and weights must have equal length")
    value = float((w * (-y * np.log(p) - (1.0 - y) * np.log(1.0 - p))).mean())
    grad = w / m * (p - y) / (p * (1.0 - p))
    return value, grad


@dataclass
class OptimizerState:
    """Adam's moment estimates for one model's parameters."""

    learning_rate: float
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def init_optimizer(learning_rate: float, model: MLPModel) -> OptimizerState:
    params = model.weights + model.biases
    return OptimizerState(learning_rate, [np.zeros_like(p) for p in params],
                          [np.zeros_like(p) for p in params])


def _check_finite(grads: Gradients) -> None:
    for g in grads.weights + grads.biases:
        if not np.isfinite(g).all():
            raise TrainingDivergedError("non-finite gradient")


def sgd_step(model: MLPModel, grads: Gradients, step: float) -> None:
    """p -= step * g for every parameter; a negative step ascends."""
    _check_finite(grads)
    for p, g in zip(model.weights + model.biases, grads.weights + grads.biases):
        p -= step * g


def adam_step(model: MLPModel, grads: Gradients, state: OptimizerState) -> None:
    _check_finite(grads)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    params = model.weights + model.biases
    glist = grads.weights + grads.biases
    for i, (p, g) in enumerate(zip(params, glist)):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g**2
        m_hat = state.m[i] / (1 - b1**state.t)
        v_hat = state.v[i] / (1 - b2**state.t)
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def save_model(model: MLPModel, path) -> None:
    payload = {
        "spec": asdict(model.spec),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_model(path) -> MLPModel:
    """The model that ``save_model`` wrote to ``path``.

    Files written while the activations were spec fields also carry
    ``hidden_activation`` and ``output_activation``; they load when these name
    what the widths now imply, and any other value or spec key is rejected.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    dims = dict(payload["spec"])
    old = {key: dims.pop(key) for key in ("hidden_activation", "output_activation") if key in dims}
    unknown = sorted(set(dims) - {"input_dim", "hidden_dim", "output_dim"})
    if unknown:
        raise ValueError(f"unknown model spec key {unknown[0]!r} = {dims[unknown[0]]!r}")
    spec = MLPSpec(**dims)
    implied = {"hidden_activation": "relu",
               "output_activation": "sigmoid" if spec.output_dim == 1 else "softmax"}
    for key, value in old.items():
        if value != implied[key]:
            raise ValueError(f"{key} {value!r} is not supported for output_dim "
                             f"{spec.output_dim}: expected {implied[key]!r}")
    model = MLPModel(
        spec,
        [np.asarray(w, dtype=np.float64) for w in payload["weights"]],
        [np.asarray(b, dtype=np.float64) for b in payload["biases"]],
    )
    expected = init_model(spec, 0)
    for got, want in zip(model.weights + model.biases, expected.weights + expected.biases):
        if got.shape != want.shape:
            raise ValueError("parameter shapes inconsistent with spec")
        if not np.isfinite(got).all():
            raise ValueError("non-finite parameters")
    return model

"""Micro neural-net core: 0/1-hidden-layer networks, hand-written backprop, SGD/Adam.

Everything is float64 numpy and fully deterministic given a seed. Models are
small (a handful of units), so all passes are full matrix ops with no batching
machinery beyond what the caller supplies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

PROB_EPS = 1e-7  # probability clamp bound applied before any log

HIDDEN_ACTIVATIONS = ("relu", "tanh")
OUTPUT_ACTIVATIONS = ("sigmoid", "softmax")


class TrainingDivergedError(RuntimeError):
    """A loss or gradient became non-finite; training has diverged."""


@dataclass(frozen=True)
class MLPSpec:
    input_dim: int
    hidden_dim: int = 0  # 0 = linear model
    output_dim: int = 1
    hidden_activation: str = "relu"
    output_activation: str = "sigmoid"

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1 or self.hidden_dim < 0:
            raise ValueError(f"bad dimensions in {self}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")


@dataclass
class MLPModel:
    spec: MLPSpec
    weights: list[np.ndarray]  # per layer, shape (fan_in, fan_out)
    biases: list[np.ndarray]

    def copy(self) -> "MLPModel":
        return MLPModel(self.spec, [w.copy() for w in self.weights], [b.copy() for b in self.biases])


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


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class ForwardCache:
    x: np.ndarray
    pre_hidden: np.ndarray | None
    hidden: np.ndarray | None
    raw_output: np.ndarray  # pre-clamp activations (probabilities)
    output: np.ndarray


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    inputs: np.ndarray | None  # None when the input gradient was not asked for

    def scaled(self, s: float) -> "Gradients":
        return Gradients(
            [s * w for w in self.weights], [s * b for b in self.biases],
            None if self.inputs is None else s * self.inputs,
        )


def forward_with_cache(model: MLPModel, x: np.ndarray) -> ForwardCache:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    spec = model.spec
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"input dim {x.shape[1]} != expected {spec.input_dim}")
    if spec.hidden_dim == 0:
        pre_hidden = hidden = None
        logits = x @ model.weights[0] + model.biases[0]
    else:
        pre_hidden = x @ model.weights[0] + model.biases[0]
        hidden = np.maximum(pre_hidden, 0.0) if spec.hidden_activation == "relu" else np.tanh(pre_hidden)
        logits = hidden @ model.weights[1] + model.biases[1]
    if spec.output_activation == "sigmoid":
        raw = _sigmoid(logits)
        out = clip_probs(raw)
    else:
        raw = _softmax(logits)
        out = raw
    return ForwardCache(x=x, pre_hidden=pre_hidden, hidden=hidden, raw_output=raw, output=out)


def forward(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Batch of output vectors; sigmoid outputs are clamped into (0, 1)."""
    return forward_with_cache(model, x).output


def backward(model: MLPModel, cache: ForwardCache, d_output: np.ndarray,
             input_grad: bool = True) -> Gradients:
    """Exact reverse-mode gradients given dLoss/dOutput.

    dLoss/dInput is returned as ``inputs`` when ``input_grad`` is set, and left
    as None otherwise; the parameter gradients are the same either way.
    """
    spec = model.spec
    d_output = np.asarray(d_output, dtype=np.float64)
    if d_output.shape != cache.output.shape:
        raise ValueError("upstream gradient shape mismatch")
    p = cache.raw_output
    if spec.output_activation == "sigmoid":
        d_logits = d_output * p * (1.0 - p)
    else:
        d_logits = p * (d_output - (d_output * p).sum(axis=1, keepdims=True))
    if spec.hidden_dim == 0:
        d_w = cache.x.T @ d_logits
        d_b = d_logits.sum(axis=0)
        d_x = d_logits @ model.weights[0].T if input_grad else None
        return Gradients([d_w], [d_b], d_x)
    d_w2 = cache.hidden.T @ d_logits
    d_b2 = d_logits.sum(axis=0)
    d_hidden = d_logits @ model.weights[1].T
    if spec.hidden_activation == "relu":
        d_pre = d_hidden * (cache.pre_hidden > 0)
    else:
        d_pre = d_hidden * (1.0 - cache.hidden**2)
    d_w1 = cache.x.T @ d_pre
    d_b1 = d_pre.sum(axis=0)
    d_x = d_pre @ model.weights[0].T if input_grad else None
    return Gradients([d_w1, d_w2], [d_b1, d_b2], d_x)


def weighted_cross_entropy(probs, labels, weights=None) -> float:
    """(1/m) sum_i w_i * [-y_i log p_i - (1-y_i) log(1-p_i)], in nats.

    The normalizer is the batch size m, not the weight total.
    """
    p = clip_probs(np.asarray(probs, dtype=np.float64).reshape(-1))
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if len(p) != len(y):
        raise ValueError("probs and labels must have equal length")
    w = np.ones_like(p) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    per = -y * np.log(p) - (1.0 - y) * np.log(1.0 - p)
    return float((w * per).mean())


def weighted_cross_entropy_grad(probs, labels, weights=None) -> tuple[float, np.ndarray]:
    """Loss value and dLoss/dProbs (a length-m vector)."""
    p = clip_probs(np.asarray(probs, dtype=np.float64).reshape(-1))
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    m = len(p)
    w = np.ones_like(p) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    value = float((w * (-y * np.log(p) - (1.0 - y) * np.log(1.0 - p))).mean())
    grad = w / m * (p - y) / (p * (1.0 - p))
    return value, grad


@dataclass
class OptimizerState:
    kind: str  # "sgd" | "adam"
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list[np.ndarray] | None = None
    v: list[np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def init_optimizer(kind: str, learning_rate: float, model: MLPModel) -> OptimizerState:
    state = OptimizerState(kind=kind, learning_rate=learning_rate)
    if kind == "adam":
        params = model.weights + model.biases
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    return state


def _check_finite(grads: Gradients) -> None:
    for g in grads.weights + grads.biases:
        if not np.isfinite(g).all():
            raise TrainingDivergedError("non-finite gradient")


def sgd_step(model: MLPModel, grads: Gradients, state: OptimizerState) -> None:
    _check_finite(grads)
    for p, g in zip(model.weights + model.biases, grads.weights + grads.biases):
        p -= state.learning_rate * g


def adam_step(model: MLPModel, grads: Gradients, state: OptimizerState) -> None:
    _check_finite(grads)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    params = model.weights + model.biases
    glist = grads.weights + grads.biases
    for i, (p, g) in enumerate(zip(params, glist)):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g**2
        m_hat = state.m[i] / (1 - b1**state.t)
        v_hat = state.v[i] / (1 - b2**state.t)
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)


def get_flat_params(model: MLPModel) -> np.ndarray:
    return np.concatenate([p.ravel() for p in model.weights + model.biases])


def set_flat_params(model: MLPModel, flat: np.ndarray) -> None:
    offset = 0
    for p in model.weights + model.biases:
        p[...] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    if offset != flat.size:
        raise ValueError("flat parameter vector has wrong length")


def flatten_grads(grads: Gradients) -> np.ndarray:
    return np.concatenate([g.ravel() for g in grads.weights + grads.biases])


def numeric_gradient(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.zeros_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = h
        out[i] = (f(x0 + step) - f(x0 - step)) / (2 * h)
    return out


def save_model(model: MLPModel, path) -> None:
    payload = {
        "spec": asdict(model.spec),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_model(path) -> MLPModel:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    spec = MLPSpec(**payload["spec"])
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

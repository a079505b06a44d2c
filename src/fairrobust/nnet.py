"""Micro neural-net core: 0/1-hidden-layer networks, hand-written backprop, SGD/Adam.

Everything is float64 numpy and fully deterministic given a seed. Models are
small (a handful of units), so all passes are full matrix ops with no batching
machinery beyond what the caller supplies.

One kind of network: an optional ReLU hidden layer, then a sigmoid output
(clamped into (0, 1)) for one output or a softmax for two or more, so the
spec holds only the three widths. Adam's betas and epsilon are the constants
below.

Layout: the passes are feature-major. The hidden layer, its work buffer and
the outputs live in (units, rows) memory, and a ``ForwardCache`` holds them,
and the input, as (rows, units) views: the public functions take and return
rows-first arrays, and each ``.T`` is a view, never a copy. So every
elementwise step, bias add, ReLU mask, softmax reduction and bias-gradient sum
runs along the rows instead of along rows a few units wide. The matmuls read
the weights, which stay (fan_in, fan_out), through ``.T`` views too, and the
input as given: only matmuls read it, and ``trainer`` builds the generator's
once per run as the ``.T`` of (features, rows) memory. A caller that runs many
passes over the same rows hands its earlier cache back to
``forward_with_cache``, which then computes the hidden layer in that cache's
buffers instead of mapping fresh ones, and ``backward`` computes dLoss/dHidden
and then dLoss/dPre-activation in place in the second.

Parameters: a model keeps all its parameters in one float64 vector,
``MLPModel.params``, in ``weights + biases`` order, and ``weights`` and
``biases`` are views into it. ``MLPModel(spec, weights, biases)`` builds them
so, from copies of the arrays it is given, and raises ``ValueError`` when a
shape does not fit ``spec``; ``init_model``, pickle and ``copy`` go through
it. An optimizer step is one update of the whole vector, and Adam's
moments are one vector each. So a parameter is changed in place
(``model.weights[0][...] = w``), never rebound: a rebound list entry is no
longer part of the model the optimizers step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    weights: list[np.ndarray]  # per layer, shape (fan_in, fan_out); views into params
    biases: list[np.ndarray]  # per layer, shape (fan_out,); views into params
    params: np.ndarray = field(init=False, repr=False)  # every parameter, weights first

    def __post_init__(self):
        arrays = [np.asarray(p, dtype=np.float64) for p in self.weights + self.biases]
        layers, n = _layers(self.spec), len(self.weights)
        shapes = ([w.shape for w in arrays[:n]], [b.shape for b in arrays[n:]])
        if shapes != (layers, [(fan_out,) for _, fan_out in layers]):
            raise ValueError(f"weight and bias shapes {shapes} do not fit {self.spec}")
        self.params = np.concatenate([p.ravel() for p in arrays])
        views, offset = [], 0
        for p in arrays:
            views.append(self.params[offset:offset + p.size].reshape(p.shape))
            offset += p.size
        self.weights, self.biases = views[:n], views[n:]

    def __reduce__(self):
        # Pickled and copied through the constructor, so a copy's weights and
        # biases are views into its own vector.
        return MLPModel, (self.spec, self.weights, self.biases)


def _layers(spec: MLPSpec) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of each layer: one, or two with a hidden layer."""
    dims = [d for d in (spec.input_dim, spec.hidden_dim, spec.output_dim) if d]
    return list(zip(dims[:-1], dims[1:]))


def init_model(spec: MLPSpec, seed: int) -> MLPModel:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in _layers(spec):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(spec, weights, biases)


def clip_probs(p: np.ndarray) -> np.ndarray:
    """``np.clip(p, PROB_EPS, 1 - PROB_EPS)``, NaN kept, without its wrapper's cost."""
    return np.minimum(np.maximum(p, PROB_EPS), 1.0 - PROB_EPS)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below."""
    e = np.copysign(x, -1.0)  # -|x|, with the bits of -np.abs(x)
    np.exp(e, out=e)
    d = e + 1.0
    # The numerator, in place: e^-|x| <= 1, so max(e^-|x|, x >= 0) is 1 for
    # x >= 0 and e^-|x| below (NaN stays NaN).
    np.maximum(e, x >= 0, out=e)
    e /= d
    return e


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of each row; on a ``.T`` view the reductions run along the rows."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``. An inner dimension of 1 makes it an outer product, which a
    broadcast multiply computes several times faster than matmul."""
    return (np.multiply if a.shape[1] == 1 else np.matmul)(a, b, out=out)


@dataclass
class ForwardCache:
    """What ``backward`` needs from one forward pass, as (n, units) views of
    (units, n) memory.

    ``x`` is the input as given. ``hidden`` (the activations) and ``work``
    (backward's dLoss/dHidden, then dLoss/dPre-activation) are (n, hidden_dim)
    buffers, None for a linear model. A forward pass that reuses this cache
    overwrites both.
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
        inputs = x
    else:
        shape = (spec.hidden_dim, len(x))
        hidden, work = (np.empty(shape).T, np.empty(shape).T) if reuse is None else (reuse.hidden, reuse.work)
        _matmul(model.weights[0].T, x.T, out=hidden.T)
        hidden += model.biases[0]
        np.maximum(hidden, 0.0, out=hidden)
        inputs = hidden
    logits = _matmul(model.weights[-1].T, inputs.T).T
    logits += model.biases[-1]
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
        d_logits = p * (d_output - (d_output * p).sum(axis=1, keepdims=True))
    if spec.hidden_dim == 0:
        d_w = cache.x.T @ d_logits
        d_b = d_logits.sum(axis=0)
        d_x = _matmul(model.weights[0], d_logits.T).T if input_grad else None
        return Gradients([d_w], [d_b], d_x)
    d_w2 = cache.hidden.T @ d_logits
    d_b2 = d_logits.sum(axis=0)
    d_pre = cache.work  # dLoss/dHidden, then in place dLoss/dPre-activation:
    _matmul(model.weights[1], d_logits.T, out=d_pre.T)
    d_pre *= cache.hidden > 0  # the same mask as pre-activation > 0, NaN included
    d_w1 = cache.x.T @ d_pre
    d_b1 = d_pre.sum(axis=0)
    d_x = _matmul(model.weights[0], d_pre.T).T if input_grad else None
    return Gradients([d_w1, d_w2], [d_b1, d_b2], d_x)


class CrossEntropy:
    """Binary cross entropy of a batch of probabilities against 0/1 labels, in nats.

    It takes ``forward``'s outputs, which ``forward`` already clamped to
    [PROB_EPS, 1 - PROB_EPS], and clamps them no further. The per-row losses
    -y log p - (1-y) log(1-p) are computed once, so every weighting of the
    batch shares them. ``value(w)`` is (1/m) sum_i w_i loss_i, normalized
    by the batch size m and not by the weight total, and ``grad(w)`` is its
    derivative in the probabilities, a length-m vector. Labels and weights
    hold one value per row; no weights means all ones.
    """

    def __init__(self, probs, labels):
        self.p = np.asarray(probs, dtype=np.float64).reshape(-1)
        self.y = np.asarray(labels, dtype=np.float64).reshape(-1)
        if len(self.y) != len(self.p):
            raise ValueError("probs, labels and weights must have equal length")
        self.q = 1.0 - self.p
        self.rows = -self.y * np.log(self.p) - (1.0 - self.y) * np.log(self.q)

    def _weights(self, weights) -> np.ndarray:
        if weights is None:
            return np.ones_like(self.p)
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if len(w) != len(self.p):
            raise ValueError("probs, labels and weights must have equal length")
        return w

    def value(self, weights=None) -> float:
        # The sum over the count is how ``ndarray.mean`` computes the mean.
        return float((self._weights(weights) * self.rows).sum() / len(self.p))

    def grad(self, weights=None) -> np.ndarray:
        return self._weights(weights) / len(self.p) * (self.p - self.y) / (self.p * self.q)


@dataclass
class OptimizerState:
    """Adam's moment estimates for one model's parameter vector."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def init_optimizer(learning_rate: float, model: MLPModel) -> OptimizerState:
    return OptimizerState(learning_rate, np.zeros_like(model.params),
                          np.zeros_like(model.params))


def _flat_grads(model: MLPModel, grads: Gradients) -> np.ndarray:
    """The gradients as one vector in the order of ``model.params``; raises
    ``TrainingDivergedError`` if any is non-finite."""
    g = np.concatenate([a.ravel() for a in grads.weights + grads.biases])
    if g.shape != model.params.shape:
        raise ValueError(f"{g.size} gradients for {model.params.size} parameters")
    if not np.isfinite(g).all():
        raise TrainingDivergedError("non-finite gradient")
    return g


def sgd_step(model: MLPModel, grads: Gradients, step: float) -> None:
    """p -= step * g for every parameter; a negative step ascends."""
    model.params -= step * _flat_grads(model, grads)


def adam_step(model: MLPModel, grads: Gradients, state: OptimizerState) -> None:
    """One Adam step; each element takes the float operations of the textbook
    form m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p -= lr * m_hat / (sqrt(v_hat) + eps), some of them in place."""
    g = _flat_grads(model, grads)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = state.m, state.v
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * (g * g)
    step = m / (1 - b1**state.t)
    step *= state.learning_rate
    denom = v / (1 - b2**state.t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    model.params -= step

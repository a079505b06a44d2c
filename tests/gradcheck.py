"""Finite-difference gradient checks, flat parameter views and a reference
implementation for the tests.

Not collected by pytest; test modules import it from this directory.
"""

import numpy as np

from fairrobust.adversaries import (
    LOG_EPS,
    DiscreteJoint,
    FairnessEval,
    InvalidJointError,
    _entropy,
    _table_payoff,
)
from fairrobust.metrics import empirical_entropy
from fairrobust.nnet import CrossEntropy, Gradients, MLPModel, backward, forward_with_cache


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


def weighted_cross_entropy(probs, labels, weights=None) -> float:
    return CrossEntropy(probs, labels).value(weights)


def weighted_cross_entropy_grad(probs, labels, weights=None) -> tuple[float, np.ndarray]:
    loss = CrossEntropy(probs, labels)
    return loss.value(weights), loss.grad(weights)


def numeric_gradient(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.zeros_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = h
        out[i] = (f(x0 + step) - f(x0 - step)) / (2 * h)
    return out


def table_objective(j: DiscreteJoint, table: np.ndarray) -> float:
    """Payoff sum p(a,b) log D_a(b) + H(A) for any column-simplex table D."""
    p = j.pmf
    table = np.asarray(table, dtype=np.float64)
    if table.shape != p.shape:
        raise InvalidJointError("table shape must match the pmf")
    if not np.allclose(table.sum(axis=0), 1.0, atol=1e-9) or table.min() < 0:
        raise InvalidJointError("table columns must lie on the simplex")
    return _table_payoff(p, table) + _entropy(p.sum(axis=tuple(range(1, p.ndim))))


def masked_fairness_objective(heads: dict[int, MLPModel], predictions, z, strata,
                              weights=None, prediction_grad: bool = True) -> FairnessEval:
    """The stratified fairness payoff computed from scratch with boolean masks on
    every call, as ``fairness_objective`` did before its per-run plan: the
    reference the plan must match bit for bit."""
    predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
    z = np.asarray(z, dtype=np.int64).reshape(-1)
    strata = np.asarray(strata, dtype=np.int64).reshape(-1)
    n = len(predictions)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    pred_grad = np.zeros(n) if prediction_grad else None
    head_grads = {}
    kept = strata >= 0
    m = int(kept.sum())
    entropy, payoffs = 0.0, []
    for sv in np.flatnonzero(np.bincount(strata[kept])).tolist():
        model = heads[sv]
        mask = strata == sv
        zs, ws = z[mask], w[mask]
        cache = forward_with_cache(model, predictions[mask][:, None])
        probs = cache.output
        rows = np.arange(len(zs))
        picked = np.clip(probs[rows, zs], LOG_EPS, None)
        entropy += len(zs) / m * empirical_entropy(zs)
        payoffs.append(float((ws * np.log(picked)).sum() / m))
        d_probs = np.zeros_like(probs)
        d_probs[rows, zs] = ws / (m * picked)
        grads = backward(model, cache, d_probs, input_grad=prediction_grad)
        head_grads[sv] = grads
        if prediction_grad:
            pred_grad[mask] = grads.inputs[:, 0]
    value = entropy
    for payoff in payoffs:
        value += payoff
    return FairnessEval(value, head_grads, pred_grad)

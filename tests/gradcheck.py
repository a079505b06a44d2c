"""Finite-difference gradient checks and flat parameter views for the tests.

Not collected by pytest; test modules import it from this directory.
"""

import numpy as np

from fairrobust.adversaries import DiscreteJoint, InvalidJointError, _entropy, _table_payoff
from fairrobust.nnet import Gradients, MLPModel


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


def table_objective(j: DiscreteJoint, table: np.ndarray) -> float:
    """Payoff sum p(a,b) log D_a(b) + H(A) for any column-simplex table D."""
    p = j.pmf
    table = np.asarray(table, dtype=np.float64)
    if table.shape != p.shape:
        raise InvalidJointError("table shape must match the pmf")
    if not np.allclose(table.sum(axis=0), 1.0, atol=1e-9) or table.min() < 0:
        raise InvalidJointError("table columns must lie on the simplex")
    return _table_payoff(p, table) + _entropy(p.sum(axis=tuple(range(1, p.ndim))))

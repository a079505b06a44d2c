"""Mutual-information adversaries and exact oracles on small discrete joints.

Two kinds of machinery live here:

* The exact oracle ``mi_exact`` and its discriminator form
  ``mi_via_discriminator`` on explicit probability tables. Both compute the
  conditional mutual information I(A;B|C); a 2-D joint is the case of a single
  condition, I(A;B). The discriminator form evaluates the payoff
  ``sum_cells p * log D + H(A|C)`` at the closed-form optimal table (the
  posterior) and, as an independent check, maximizes the same payoff
  numerically by exponentiated-gradient ascent on the simplex. At the optimum
  the payoff equals the mutual information; ``oracle_deviations`` reports the
  worst gap of either form from the exact value over many joints.

* Empirical adversary objectives used during training: the fairness payoff on
  (prediction, group) pairs, summed over strata of rows with one adversary head
  per stratum, and the robustness payoff that contrasts training rows carrying
  predicted labels against validation rows carrying true labels. The strata
  select the fairness criterion: one stratum of all rows estimates I(Z; Yhat)
  (disparate impact), strata by label estimate I(Z; Yhat | Y) (equalized
  odds), and the positive-label rows alone give equal opportunity. Each
  objective returns the payoff value together with exact gradients for the
  adversary parameters and for the predictions, so the same evaluation serves
  both the ascent and descent sides of training.

What an evaluation computes, and when: the fairness payoff always computes
its value and the heads' gradients, and the prediction gradient unless
``prediction_grad=False`` (an ascent step reads only the head gradients). The
robustness payoff always computes its value, the prediction gradient (which is
analytic, from the forward pass) and the per-row slot scores; the two backward
passes for the adversary's weight and bias gradients run only with
``param_grads=True``, the default, which an ascent step needs and the
generator's evaluation does not. The robustness adversary's input rows do not
depend on the predictions, so ``robustness_rows`` builds them once per run,
together with the forward caches whose hidden-layer buffers every evaluation
of that run reuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import empirical_entropy
from .nnet import (
    ForwardCache,
    Gradients,
    MLPModel,
    MLPSpec,
    backward,
    forward_with_cache,
    init_model,
)

LOG_EPS = 1e-12


class InvalidJointError(ValueError):
    """Probability table is not a valid joint distribution."""


@dataclass
class DiscreteJoint:
    """Explicit pmf over two small finite alphabets, optionally conditioned.

    2-D tables are joints over (a, b); 3-D tables add a conditioning axis, with
    axes ordered (a, b, condition).
    """

    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.ndim not in (2, 3):
            raise InvalidJointError(f"pmf must be 2-D or 3-D, got ndim={pmf.ndim}")
        if max(pmf.shape) > 8:
            raise InvalidJointError("alphabets larger than 8 are not supported")
        if pmf.min() < 0:
            raise InvalidJointError("pmf entries must be nonnegative")
        if abs(pmf.sum() - 1.0) > 1e-12:
            raise InvalidJointError(f"pmf sums to {pmf.sum()}, expected 1")
        self.pmf = pmf


def _xlogratio(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def _by_condition(p: np.ndarray) -> np.ndarray:
    """The (a, b, condition) view of a joint: a 2-D joint has one condition."""
    return p.reshape(p.shape[0], p.shape[1], -1)


def mi_exact(j: DiscreteJoint) -> float:
    """I(A;B|C) = sum_c p(c) I(A;B | C=c), in nats, with C on the last axis.

    A 2-D joint is the one-condition case, I(A;B) = sum p(a,b) log [p(a,b) / (p(a)p(b))].
    """
    p = _by_condition(j.pmf)
    total = 0.0
    for c in range(p.shape[2]):
        pc = p[:, :, c].sum()
        if pc > 0:
            s = p[:, :, c] / pc
            total += pc * _xlogratio(s, np.outer(s.sum(axis=1), s.sum(axis=0)))
    return float(total)


def _entropy(p: np.ndarray) -> float:
    mask = p > 0
    return float(-(p[mask] * np.log(p[mask])).sum())


def _table_payoff(mass: np.ndarray, table: np.ndarray) -> float:
    mask = mass > 0
    return float((mass[mask] * np.log(np.clip(table[mask], LOG_EPS, None))).sum())


def _fw_gap(mass: np.ndarray, d: np.ndarray) -> float:
    """Frank-Wolfe optimality gap of the concave payoff at a feasible table.

    Per column the gap is max_a grad_a - <grad, d> with grad = mass / d; it
    upper-bounds the distance to the column's optimum, so summing columns
    bounds the total suboptimality.
    """
    grad = mass / np.clip(d, LOG_EPS, None)
    col_mass = mass.sum(axis=0)
    return float((grad.max(axis=0) - col_mass)[col_mass > 0].sum())


def _maximize_table(mass: np.ndarray, max_iters: int = 10_000, step: float = 0.1,
                    tol: float = 1e-6) -> tuple[float, np.ndarray]:
    """Maximize sum(mass * log D) over column-simplex tables D by gradient ascent.

    Internal verification tool, independent of the closed-form optimum. Ascent
    runs in the simplex's natural (exponentiated-gradient) geometry: a plain
    Euclidean projected step is hopelessly ill-conditioned when some optimal
    cell is tiny, while the multiplicative step handles it in a few iterations.
    The step backtracks until the payoff improves and iteration stops once the
    Frank-Wolfe gap certifies the payoff is within ``tol`` of the maximum.
    """
    k = mass.shape[0]
    log_d = np.full_like(mass, -math.log(k))
    d = np.exp(log_d)
    val = _table_payoff(mass, d)
    for _ in range(max_iters):
        if _fw_gap(mass, d) < tol:
            break
        grad = mass / np.clip(d, LOG_EPS, None)
        improved = False
        for _ in range(60):
            cand_log = log_d + step * grad
            cand_log -= cand_log.max(axis=0, keepdims=True)
            cand = np.exp(cand_log)
            cand /= cand.sum(axis=0, keepdims=True)
            cand_val = _table_payoff(mass, cand)
            if cand_val > val:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        d, val = cand, cand_val
        log_d = np.log(np.clip(d, 1e-300, None))
        step *= 2.0
    return val, d


@dataclass
class DiscriminatorBound:
    """Discriminator-form MI evaluation plus its numeric-maximization check."""

    value: float  # payoff at the closed-form optimal table, plus the entropy constant
    optimal_table: np.ndarray
    numeric_value: float  # payoff maximized by ``_maximize_table``, plus the same constant


def mi_via_discriminator(j: DiscreteJoint) -> DiscriminatorBound:
    """I(A;B|C) through the optimal-discriminator identity, per condition.

    The optimal table is the posterior D*_a(b, c) = p(a|b, c); evaluating the
    payoff there and adding H(A|C) recovers the conditional mutual information
    exactly. Exponentiated-gradient ascent over feasible tables independently
    verifies the maximum. A 2-D joint is the one-condition case, I(A;B), and
    its optimal table comes back 2-D.
    """
    p = _by_condition(j.pmf)
    n_a, n_b, n_c = p.shape
    marg_bc = p.sum(axis=0)  # (b, c)
    marg_c = p.sum(axis=(0, 1))
    cond_a = np.zeros((n_a, n_c))  # p(a|c), fallback for zero-mass (b, c) cells
    for c in range(n_c):
        cond_a[:, c] = p[:, :, c].sum(axis=1) / marg_c[c] if marg_c[c] > 0 else 1.0 / n_a
    d_star = np.where(
        marg_bc > 0,
        p / np.where(marg_bc > 0, marg_bc, 1.0),
        cond_a[:, None, :],
    )
    h_cond = float(
        sum(
            marg_c[c] * _entropy(p[:, :, c].sum(axis=1) / marg_c[c])
            for c in range(n_c)
            if marg_c[c] > 0
        )
    )
    value = _table_payoff(p, d_star) + h_cond
    numeric_payoff, _ = _maximize_table(p.reshape(n_a, n_b * n_c))
    return DiscriminatorBound(value, d_star.reshape(j.pmf.shape), numeric_payoff + h_cond)


def oracle_deviations(joints) -> tuple[float, float]:
    """Worst closed-form and worst numeric deviation of ``mi_via_discriminator``
    from ``mi_exact`` over the joints."""
    worst_closed = worst_numeric = 0.0
    for joint in joints:
        bound, exact = mi_via_discriminator(joint), mi_exact(joint)
        worst_closed = max(worst_closed, abs(bound.value - exact))
        worst_numeric = max(worst_numeric, abs(bound.numeric_value - exact))
    return worst_closed, worst_numeric


@dataclass
class FairnessAdversary:
    """Predicts the sensitive group from the classifier's output probability.

    The softmax head enforces the simplex constraint structurally.
    """

    model: MLPModel

    def __post_init__(self):
        if self.model.spec.output_activation != "softmax":
            raise ValueError("fairness adversary requires a softmax output")


@dataclass
class RobustnessAdversary:
    """Scores (features, one-hot group, label) rows as validation-like."""

    model: MLPModel
    z_cardinality: int

    def __post_init__(self):
        if self.model.spec.output_activation != "sigmoid" or self.model.spec.output_dim != 1:
            raise ValueError("robustness adversary requires a scalar sigmoid output")
        expected = self.model.spec.input_dim - self.z_cardinality - 1
        if expected < 1:
            raise ValueError("input dim too small for features + one-hot z + label slot")


def new_fairness_adversary(z_cardinality: int, seed: int) -> FairnessAdversary:
    """Single-layer softmax head on the scalar prediction."""
    spec = MLPSpec(input_dim=1, hidden_dim=0, output_dim=z_cardinality,
                   output_activation="softmax")
    return FairnessAdversary(init_model(spec, seed))


def new_robustness_adversary(feature_dim: int, z_cardinality: int, hidden_dim: int,
                             seed: int) -> RobustnessAdversary:
    spec = MLPSpec(
        input_dim=feature_dim + z_cardinality + 1,
        hidden_dim=hidden_dim,
        output_dim=1,
        hidden_activation="relu",
        output_activation="sigmoid",
    )
    return RobustnessAdversary(init_model(spec, seed), z_cardinality)


def robustness_inputs(features, z, label_slot, z_cardinality: int) -> np.ndarray:
    """Concatenate (features, one-hot z, label slot)."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    z = np.asarray(z, dtype=np.int64).reshape(-1)
    onehot = np.zeros((len(z), z_cardinality))
    onehot[np.arange(len(z)), z] = 1.0
    slot = np.asarray(label_slot, dtype=np.float64).reshape(-1, 1)
    return np.hstack([features, onehot, slot])


@dataclass(frozen=True)
class RobustnessRows:
    """The robustness adversary's input rows, which do not depend on predictions,
    held in the forward caches that every evaluation writes into.

    ``train.x`` holds (x_i, onehot z_i, 1) for every training row, followed by
    (x_i, onehot z_i, 0) for every training row, so one forward pass scores
    both label slots; ``val.x`` holds (x_j, onehot z_j, y_j). Each
    ``robustness_objective`` call computes its two forward passes, and its two
    backward passes if any, in the hidden-layer buffers of ``train`` and
    ``val``, so a run allocates them once; nothing that the call returns
    shares memory with them.
    """

    train: ForwardCache
    val: ForwardCache


def robustness_rows(adv: RobustnessAdversary, train_features, train_z, val_features,
                    val_z, val_labels) -> RobustnessRows:
    """Build the constant input rows of ``robustness_objective`` for one run."""
    x_va = robustness_inputs(val_features, val_z, val_labels, adv.z_cardinality)
    if len(x_va) == 0:
        raise ValueError("validation set must be nonempty")
    x_pos = robustness_inputs(train_features, train_z, np.ones(len(train_z)),
                              adv.z_cardinality)
    if len(x_pos) == 0:
        raise ValueError("training set must be nonempty")
    x_neg = x_pos.copy()
    x_neg[:, -1] = 0.0
    return RobustnessRows(forward_with_cache(adv.model, np.vstack([x_pos, x_neg])),
                          forward_with_cache(adv.model, x_va))


@dataclass
class FairnessEval:
    value: float
    head_grads: dict[int, Gradients]
    prediction_grad: np.ndarray | None  # None when evaluated with prediction_grad=False


@dataclass
class RobustnessEval:
    """One evaluation of the robustness payoff.

    ``value``, ``prediction_grad`` and ``slot_scores`` come from the forward
    pass and are always set. ``weight_grads`` and ``bias_grads`` need two
    backward passes and are None when evaluated with ``param_grads=False``.
    """

    value: float
    weight_grads: list[np.ndarray] | None
    bias_grads: list[np.ndarray] | None
    prediction_grad: np.ndarray
    slot_scores: np.ndarray  # (m, 2): D(x_i, z_i, 0) and D(x_i, z_i, 1) per training row

    def adversary_grads(self) -> Gradients:
        if self.weight_grads is None:
            raise ValueError("evaluated without parameter gradients (param_grads=False)")
        return Gradients(self.weight_grads, self.bias_grads, None)

    def label_scores(self, labels) -> np.ndarray:
        """D(x_i, z_i, y_i): each training row scored with its own label."""
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        return self.slot_scores[np.arange(len(labels)), labels]


def fairness_objective(heads: dict[int, FairnessAdversary], predictions, z, strata,
                       weights=None, prediction_grad: bool = True) -> FairnessEval:
    """Stratified fairness payoff (1/m) sum_i w_i log D^{s_i}_{z_i}(yhat_i) + H(Z | S).

    Row i is scored by the head of its stratum s_i. Rows with s_i < 0 are left
    out, and m counts the kept rows; H(Z | S) is the empirical conditional
    group entropy of the kept rows, a constant with no gradient. At the heads'
    optimum the payoff estimates I(Z; Yhat | S); driving it to zero makes
    predictions carry no group information within any stratum. With no row
    kept the payoff is 0 and no head gets gradients. The prediction gradient
    is computed only when ``prediction_grad`` is set.
    """
    predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
    z = np.asarray(z, dtype=np.int64).reshape(-1)
    strata = np.asarray(strata, dtype=np.int64).reshape(-1)
    n = len(predictions)
    if n == 0 or len(z) != n or len(strata) != n:
        raise ValueError("predictions, z, strata must be nonempty and equal length")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    pred_grad = np.zeros(n) if prediction_grad else None
    head_grads: dict[int, Gradients] = {}
    kept = strata >= 0
    m = int(kept.sum())
    entropy, payoffs = 0.0, []
    for sv in np.flatnonzero(np.bincount(strata[kept])).tolist():
        if sv not in heads:
            raise ValueError(f"no adversary head for stratum {sv}")
        model = heads[sv].model
        mask = strata == sv
        zs, ws = z[mask], w[mask]
        if model.spec.output_dim <= zs.max():
            raise ValueError("adversary output dim smaller than number of groups")
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
    value = entropy  # float addition does not associate: this order is part of the result
    for payoff in payoffs:
        value += payoff
    return FairnessEval(value, head_grads, pred_grad)


def robustness_objective(adv: RobustnessAdversary, rows: RobustnessRows, train_predictions,
                         param_grads: bool = True) -> RobustnessEval:
    """Balanced real-vs-generated payoff between validation rows and training rows.

    Validation rows carry their true labels y in {0, 1}. A training row carries
    a predicted label Yhat ~ Bernoulli(yhat), so both sides share one support
    and the training side enters as an expectation over the two label slots:

        (1/2m) sum_i [yhat_i log(1 - D(x_i, z_i, 1)) + (1 - yhat_i) log(1 - D(x_i, z_i, 0))]

    Each side contributes probability mass 1/2, so the added constant is
    H(V) = ln 2; the payoff is zero at a uniform adversary and at the adversary
    optimum equals I(V; (X, Z, Yhat)) for the source indicator V. The payoff is
    affine in each yhat_i, with prediction gradient
    [log(1 - D(., 1)) - log(1 - D(., 0))] / 2m.

    ``rows`` comes from ``robustness_rows``, and ``train_predictions`` holds
    one yhat per training row. The adversary's parameter gradients are
    computed only when ``param_grads`` is set.
    """
    yhat = np.asarray(train_predictions, dtype=np.float64).reshape(-1)
    m_tr, m_va = len(yhat), len(rows.val.x)
    if len(rows.train.x) != 2 * m_tr:
        raise ValueError(f"{m_tr} predictions for {len(rows.train.x) // 2} training rows")
    cache_tr = forward_with_cache(adv.model, rows.train.x, rows.train)
    cache_va = forward_with_cache(adv.model, rows.val.x, rows.val)
    d_tr = cache_tr.output.ravel()
    d_pos, d_neg = d_tr[:m_tr], d_tr[m_tr:]
    d_va = cache_va.output.ravel()
    log_pos = np.log(1.0 - d_pos)
    log_neg = np.log(1.0 - d_neg)
    value = (
        float(np.log(d_va).mean()) / 2.0
        + float((yhat * log_pos + (1.0 - yhat) * log_neg).sum()) / (2.0 * m_tr)
        + math.log(2.0)
    )
    weight_grads = bias_grads = None
    if param_grads:
        up_va = (1.0 / (2.0 * m_va * d_va))[:, None]
        up_tr = (-np.concatenate([yhat / (1.0 - d_pos), (1.0 - yhat) / (1.0 - d_neg)])
                 / (2.0 * m_tr))[:, None]
        g_va = backward(adv.model, cache_va, up_va, input_grad=False)
        g_tr = backward(adv.model, cache_tr, up_tr, input_grad=False)
        weight_grads = [a + b for a, b in zip(g_va.weights, g_tr.weights)]
        bias_grads = [a + b for a, b in zip(g_va.biases, g_tr.biases)]
    return RobustnessEval(
        value=value,
        weight_grads=weight_grads,
        bias_grads=bias_grads,
        prediction_grad=(log_pos - log_neg) / (2.0 * m_tr),
        slot_scores=np.column_stack([d_neg, d_pos]),
    )

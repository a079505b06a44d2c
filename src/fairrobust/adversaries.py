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
strata and group codes do not depend on the predictions, so ``fairness_rows``
builds once per run what every fairness evaluation reads: each stratum's row
indices and group codes, the number of kept rows and H(Z | S); an evaluation
gathers the rows and runs each head's forward and backward pass. The
robustness payoff always computes its value, the prediction gradient (which is
analytic, from the forward pass) and the label scores, each training row
scored with its own label; the two backward passes for the adversary's
parameter gradients run only with ``param_grads=True``, the default, which an
ascent step needs and the generator's evaluation does not. The robustness
adversary's input rows do not depend on the predictions, so
``robustness_rows`` builds them once per run from the run's training and
validation ``Dataset``s, together with the forward caches whose hidden-layer
buffers every evaluation of that run reuses and the position of each training
row's own-label slot. Its forward passes do not depend on the predictions
either: an evaluation reruns them only when the adversary's parameters differ
from those the caches were computed with, so the generator's evaluation at
the end of an epoch and the first ascent step of the next share one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
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


def new_fairness_adversary(z_cardinality: int, seed: int) -> MLPModel:
    """Single-layer softmax head that predicts the sensitive group from the
    scalar prediction; the softmax keeps its output on the simplex."""
    if z_cardinality < 2:
        raise ValueError(f"a softmax head needs 2 or more groups, got {z_cardinality}")
    return init_model(MLPSpec(input_dim=1, hidden_dim=0, output_dim=z_cardinality), seed)


def new_robustness_adversary(feature_dim: int, z_cardinality: int, hidden_dim: int,
                             seed: int) -> MLPModel:
    """Sigmoid net that scores (features, one-hot group, label) rows as validation-like."""
    return init_model(MLPSpec(input_dim=feature_dim + z_cardinality + 1, hidden_dim=hidden_dim),
                      seed)


def robustness_inputs(features, z, label_slot, z_cardinality: int) -> np.ndarray:
    """Concatenate (features, one-hot z, label slot).

    Group codes must lie in [0, z_cardinality) and label slots in {0, 1}.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    z = np.asarray(z, dtype=np.int64).reshape(-1)
    slot = np.asarray(label_slot, dtype=np.float64).reshape(-1, 1)
    bad_z = z[(z < 0) | (z >= z_cardinality)]
    if len(bad_z):
        raise ValueError(f"group code {bad_z[0]} is outside [0, {z_cardinality})")
    bad_slot = slot[(slot != 0.0) & (slot != 1.0)]
    if len(bad_slot):
        raise ValueError(f"label slot {bad_slot[0]} is not 0 or 1")
    onehot = np.zeros((len(z), z_cardinality))
    onehot[np.arange(len(z)), z] = 1.0
    return np.hstack([features, onehot, slot])


@dataclass
class RobustnessRows:
    """The robustness adversary's input rows, which do not depend on predictions,
    held in the forward caches that every evaluation writes into.

    ``train.x`` holds (x_i, onehot z_i, 1) for every training row, followed by
    (x_i, onehot z_i, 0) for every training row, so one forward pass scores
    both label slots; ``own[i]`` is the position of row i's own-label slot,
    (x_i, onehot z_i, y_i), in that pass. ``val.x`` holds
    (x_j, onehot z_j, y_j). ``params`` holds the bytes of each adversary
    parameter that ``train`` and ``val`` were computed with. A
    ``robustness_objective`` call whose adversary differs from them reruns
    both forward passes, and each call runs its backward passes if any, in
    the hidden-layer buffers of ``train`` and ``val``, so a run allocates them
    once; nothing that the call returns shares memory with them.
    """

    train: ForwardCache
    val: ForwardCache
    params: list[bytes]
    own: np.ndarray


def _param_bytes(model: MLPModel) -> list[bytes]:
    """Each parameter's bytes. Equal bytes give a forward pass equal bits, and
    the lengths of the biases and weights fix every shape."""
    return [p.tobytes() for p in model.weights + model.biases]


def robustness_rows(adv: MLPModel, train: Dataset, val: Dataset) -> RobustnessRows:
    """Build the constant input rows of ``robustness_objective`` for one run.

    Both splits are one-hot encoded with ``train.z_cardinality`` groups.
    """
    if adv.spec.output_dim != 1:
        raise ValueError("robustness adversary requires a scalar sigmoid output")
    if len(val) == 0:
        raise ValueError("validation set must be nonempty")
    if len(train) == 0:
        raise ValueError("training set must be nonempty")
    k, m = train.z_cardinality, len(train)
    x_va = robustness_inputs(val.features, val.sensitive, val.labels, k)
    x_pos = robustness_inputs(train.features, train.sensitive, np.ones(m), k)
    x_neg = x_pos.copy()
    x_neg[:, -1] = 0.0
    return RobustnessRows(forward_with_cache(adv, np.vstack([x_pos, x_neg])),
                          forward_with_cache(adv, x_va), _param_bytes(adv),
                          np.arange(m) + m * (train.labels == 0))


@dataclass(frozen=True)
class FairnessStratum:
    """The kept rows of one stratum of the fairness payoff."""

    key: int  # the stratum, which names the adversary head that scores it
    rows: np.ndarray  # indices of its rows among all rows
    z: np.ndarray  # their group codes
    positions: np.ndarray  # arange(len(rows)), the row index into the head's output
    max_code: int  # the largest of ``z``


@dataclass(frozen=True)
class FairnessRows:
    """The fairness payoff's constants for one run: the kept strata in
    increasing order, the number m of kept rows, H(Z | S) over the kept rows,
    and the number of rows, kept or not."""

    strata: tuple[FairnessStratum, ...]
    m: int
    entropy: float
    n: int


def fairness_rows(z, strata) -> FairnessRows:
    """Build the constant part of ``fairness_objective`` for one run.

    Rows with a negative stratum are left out. Group codes must be
    nonnegative, and ``z`` and ``strata`` nonempty and of one length.
    """
    z = np.asarray(z, dtype=np.int64).reshape(-1)
    strata = np.asarray(strata, dtype=np.int64).reshape(-1)
    if len(z) == 0 or len(strata) != len(z):
        raise ValueError(f"z and strata must be nonempty and of one length, got {len(z)} "
                         f"and {len(strata)}")
    if z.min() < 0:
        raise ValueError(f"group codes must be nonnegative, got {z.min()}")
    kept = strata >= 0
    m = int(kept.sum())
    entropy, parts = 0.0, []
    for key in np.flatnonzero(np.bincount(strata[kept])).tolist():
        rows = np.flatnonzero(strata == key)
        zs = z[rows]
        entropy += len(zs) / m * empirical_entropy(zs)
        parts.append(FairnessStratum(key, rows, zs, np.arange(len(zs)), int(zs.max())))
    return FairnessRows(tuple(parts), m, entropy, len(z))


@dataclass
class FairnessEval:
    value: float
    head_grads: dict[int, Gradients]
    prediction_grad: np.ndarray | None  # None when evaluated with prediction_grad=False


@dataclass
class RobustnessEval:
    """One evaluation of the robustness payoff.

    ``value``, ``prediction_grad`` and ``label_scores`` come from the forward
    pass and are always set. ``grads``, the adversary's parameter gradients,
    needs two backward passes and is None when evaluated with
    ``param_grads=False``.
    """

    value: float
    grads: Gradients | None
    prediction_grad: np.ndarray
    label_scores: np.ndarray  # D(x_i, z_i, y_i): each training row scored with its own label


def fairness_objective(heads: dict[int, MLPModel], rows: FairnessRows, predictions,
                       weights=None, prediction_grad: bool = True) -> FairnessEval:
    """Stratified fairness payoff (1/m) sum_i w_i log D^{s_i}_{z_i}(yhat_i) + H(Z | S).

    Row i is scored by the head of its stratum s_i. ``rows`` comes from
    ``fairness_rows``, which leaves out the rows with s_i < 0 and holds the
    kept rows of each stratum, their group codes, their count m and the
    empirical conditional group entropy H(Z | S), a constant with no
    gradient. ``predictions`` and ``weights`` hold one value per row of the
    plan. At the heads' optimum the payoff estimates I(Z; Yhat | S); driving
    it to zero makes predictions carry no group information within any
    stratum. With no row kept the payoff is 0 and no head gets gradients. The
    prediction gradient is computed only when ``prediction_grad`` is set.
    """
    predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
    w = np.ones(rows.n) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    if len(predictions) != rows.n or len(w) != rows.n:
        raise ValueError(f"{len(predictions)} predictions and {len(w)} weights "
                         f"for {rows.n} rows")
    pred_grad = np.zeros(rows.n) if prediction_grad else None
    head_grads: dict[int, Gradients] = {}
    payoffs = []
    for stratum in rows.strata:
        if stratum.key not in heads:
            raise ValueError(f"no adversary head for stratum {stratum.key}")
        model = heads[stratum.key]
        if model.spec.output_dim <= stratum.max_code:
            raise ValueError("adversary output dim smaller than number of groups")
        ws = w[stratum.rows]
        cache = forward_with_cache(model, predictions[stratum.rows][:, None])
        probs = cache.output
        picked = np.clip(probs[stratum.positions, stratum.z], LOG_EPS, None)
        payoffs.append(float((ws * np.log(picked)).sum() / rows.m))
        d_probs = np.zeros_like(probs)
        d_probs[stratum.positions, stratum.z] = ws / (rows.m * picked)
        grads = backward(model, cache, d_probs, input_grad=prediction_grad)
        head_grads[stratum.key] = grads
        if prediction_grad:
            pred_grad[stratum.rows] = grads.inputs[:, 0]
    value = rows.entropy  # float addition does not associate: this order is part of the result
    for payoff in payoffs:
        value += payoff
    return FairnessEval(value, head_grads, pred_grad)


def robustness_objective(adv: MLPModel, rows: RobustnessRows, train_predictions,
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
    one yhat per training row. The two forward passes rerun only when
    ``adv``'s parameters differ from those ``rows`` last saw; the adversary's
    parameter gradients are computed only when ``param_grads`` is set.
    """
    yhat = np.asarray(train_predictions, dtype=np.float64).reshape(-1)
    m_tr, m_va = len(yhat), len(rows.val.x)
    if len(rows.train.x) != 2 * m_tr:
        raise ValueError(f"{m_tr} predictions for {len(rows.train.x) // 2} training rows")
    params = _param_bytes(adv)
    if params != rows.params:
        rows.train = forward_with_cache(adv, rows.train.x, rows.train)
        rows.val = forward_with_cache(adv, rows.val.x, rows.val)
        rows.params = params
    cache_tr, cache_va = rows.train, rows.val
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
    grads = None
    if param_grads:
        up_va = (1.0 / (2.0 * m_va * d_va))[:, None]
        up_tr = (-np.concatenate([yhat / (1.0 - d_pos), (1.0 - yhat) / (1.0 - d_neg)])
                 / (2.0 * m_tr))[:, None]
        g_va = backward(adv, cache_va, up_va, input_grad=False)
        g_tr = backward(adv, cache_tr, up_tr, input_grad=False)
        grads = Gradients([a + b for a, b in zip(g_va.weights, g_tr.weights)],
                          [a + b for a, b in zip(g_va.biases, g_tr.biases)], None)
    return RobustnessEval(value, grads, (log_pos - log_neg) / (2.0 * m_tr), d_tr[rows.own])

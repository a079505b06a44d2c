"""Alternating min-max training: classifier vs fairness and robustness adversaries.

The classifier ("generator") is a logistic model on the features with the
one-hot sensitive code appended. It minimizes a convex combination of its
weighted cross entropy, the fairness adversary's payoff, and the robustness
adversary's payoff; the adversaries maximize their own payoffs with several
ascent steps per generator step. Every step sees the whole training set. When
re-weighting is on, per-example weights are rebuilt every generator step from
the robustness adversary's decision values on each training row with its own
label, gated by the relative performance of classifier and adversary.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .adversaries import (
    fairness_objective,
    fairness_rows,
    new_fairness_adversary,
    new_robustness_adversary,
    robustness_objective,
    robustness_rows,
)
from .dataset import Dataset
from .metrics import MetricsReport, UndefinedGroupError, accuracy, compute_report, disparate_impact
from .nnet import (
    MLPModel,
    MLPSpec,
    TrainingDivergedError,
    adam_step,
    backward,
    forward,
    forward_with_cache,
    init_model,
    init_optimizer,
    sgd_step,
    weighted_cross_entropy,
    weighted_cross_entropy_grad,
)

logger = logging.getLogger(__name__)

FAIRNESS_CRITERIA = ("DI", "EO", "EOPP")
ROBUST_HIDDEN = 8  # hidden ReLU units of the robustness adversary
# The fairness adversary stays frozen until the generator's probe accuracy
# reaches UNFREEZE_ACCURACY or UNFREEZE_EPOCH_FRACTION of the epochs have
# elapsed, whichever happens first.
UNFREEZE_ACCURACY = 0.65
UNFREEZE_EPOCH_FRACTION = 0.30


class ConfigError(ValueError):
    """Invalid training configuration."""


@dataclass
class TrainConfig:
    """Knobs for one full-batch training run.

    ``lambda1`` and ``lambda2`` weight the fairness and robustness payoffs; the
    cross entropy is scaled by ``1 - lambda1 - lambda2``. ``update_ratio`` is
    the number of adversary ascent steps per generator step, and
    ``pretrain_epochs`` generator steps on the cross entropy alone come first.
    The model architecture and the fairness warm-up are fixed (see the module
    constants).
    """

    lambda1: float = 0.0
    lambda2: float = 0.0
    c_threshold: float = 1.0
    fairness_criterion: str = "DI"
    generator_lr: float = 0.01
    disc_lr: float = 0.05
    epochs: int = 2000
    pretrain_epochs: int = 200
    update_ratio: int = 3
    reweight: bool = True
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.lambda1 < 1.0 and 0.0 <= self.lambda2 < 1.0):
            raise ConfigError("lambda1 and lambda2 must lie in [0, 1)")
        if self.lambda1 + self.lambda2 >= 1.0:
            raise ConfigError("lambda1 + lambda2 must be < 1")
        if self.fairness_criterion not in FAIRNESS_CRITERIA:
            raise ConfigError(f"fairness_criterion must be one of {FAIRNESS_CRITERIA}")
        if self.generator_lr <= 0 or self.disc_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if self.epochs < 1 or self.pretrain_epochs < 0:
            raise ConfigError("epochs must be >= 1 and pretrain_epochs >= 0")
        if self.update_ratio < 1:
            raise ConfigError("update_ratio must be >= 1")


def reject_unknown_keys(*sections) -> None:
    """Raise ``ConfigError`` naming every config key that nothing reads.

    Each section is (payload dict, the keys that are read, prefix for the
    message).
    """
    unknown = [prefix + key for payload, known, prefix in sections
               for key in payload if key not in known]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


@dataclass
class TrainHistory:
    """Per-epoch trace of the main loop (pretraining epochs are not recorded)."""

    l1: list[float] = field(default_factory=list)
    l2: list[float] = field(default_factory=list)
    l3: list[float] = field(default_factory=list)
    l_c: list[float] = field(default_factory=list)
    l_d: list[float] = field(default_factory=list)
    r: list[float] = field(default_factory=list)
    probe_accuracy: list[float] = field(default_factory=list)
    probe_di: list[float] = field(default_factory=list)

    def append(self, **kwargs) -> None:
        for key, value in kwargs.items():
            getattr(self, key).append(float(value))

    def __len__(self) -> int:
        return len(self.l1)

    def to_csv(self, path) -> None:
        cols = [f.name for f in fields(self)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch"] + cols)
            for i in range(len(self)):
                writer.writerow([i] + [getattr(self, c)[i] for c in cols])


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def compute_example_weights(d_values, l_c: float, l_d: float, c_threshold: float):
    """W_i = R + d_i * (1 - R) with gate R = sigmoid(l_c / l_d - c_threshold).

    ``d_values`` are the robustness adversary's validation-likeness scores on
    the training rows, each scored with its own label; ``l_d`` is the
    adversary's current payoff. A payoff at or below zero means the adversary
    is no better than chance, so re-weighting is suspended (all weights 1).
    """
    d_values = np.asarray(d_values, dtype=np.float64).reshape(-1)
    if l_d <= 0.0:
        logger.debug("re-weighting suspended: adversary payoff %.4g <= 0", l_d)
        return np.ones_like(d_values), 1.0
    r = _sigmoid(l_c / l_d - c_threshold)
    return r + d_values * (1.0 - r), r


def predict(model: MLPModel, features) -> np.ndarray:
    """Positive-class probability for each input row (matrix must match the model)."""
    return forward(model, np.atleast_2d(np.asarray(features, dtype=np.float64))).ravel()


def decide(probabilities) -> np.ndarray:
    """Threshold at 0.5; ties go to the positive class."""
    return (np.asarray(probabilities, dtype=np.float64) >= 0.5).astype(np.int64)


def model_inputs(model: MLPModel, d: Dataset) -> np.ndarray:
    """Input matrix for a model trained on this dataset's schema: the features
    with one-hot sensitive codes appended."""
    want = model.spec.input_dim
    if want != d.feature_dim + d.z_cardinality:
        raise ConfigError(
            f"model expects input dim {want}; dataset provides {d.feature_dim} features "
            f"and {d.z_cardinality} sensitive codes"
        )
    return _augment(d.features, d.sensitive, d.z_cardinality)


def _augment(features, sensitive, z_cardinality: int) -> np.ndarray:
    onehot = np.zeros((len(sensitive), z_cardinality))
    onehot[np.arange(len(sensitive)), sensitive] = 1.0
    return np.hstack([features, onehot])


def evaluate_model(model: MLPModel, d: Dataset) -> MetricsReport:
    return compute_report(decide(predict(model, model_inputs(model, d))),
                          d.labels, d.sensitive, z_cardinality=d.z_cardinality)


def _fairness_strata(criterion: str, labels: np.ndarray) -> np.ndarray:
    """Per-row stratum of the fairness payoff: one stratum for DI, the label for
    EO, and the positive-label rows alone (others left out, -1) for EOPP."""
    if criterion == "DI":
        return np.zeros_like(labels)
    if criterion == "EO":
        return labels
    return np.where(labels == 1, 0, -1)


def train_fair_robust(train: Dataset, val: Dataset | None, cfg: TrainConfig
                      ) -> tuple[MLPModel, TrainHistory]:
    """Run the full alternating loop and return the final generator and history.

    Loop contract: pretrain the generator on the scaled cross entropy alone;
    then, per epoch, ``update_ratio`` adversary ascent steps followed by one
    generator descent step on the combined objective with adversary parameters
    held fixed. Weights are rebuilt before every generator step when
    re-weighting is on, and apply to the cross entropy and fairness payoff
    only. Deterministic for a fixed config and datasets.
    """
    if cfg.lambda2 > 0 and (val is None or len(val) == 0):
        raise ConfigError("lambda2 > 0 requires a nonempty validation set "
                          "(set lambda2 = 0 to disable robustness training)")
    if len(train) == 0:
        raise ConfigError("training set is empty")
    if val is not None and len(val) > 0:
        if val.feature_dim != train.feature_dim:
            raise ConfigError("train/validation feature dimensions differ")
        if val.sensitive.max() >= train.z_cardinality:
            raise ConfigError(
                f"validation group code {val.sensitive.max()} is out of range: validation "
                f"z_cardinality is {val.z_cardinality}, training z_cardinality is "
                f"{train.z_cardinality}")

    z, y, w0 = train.sensitive, train.labels, train.weights
    x = _augment(train.features, z, train.z_cardinality)
    lam0 = 1.0 - cfg.lambda1 - cfg.lambda2
    seeds = [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(cfg.seed).spawn(3)]
    gen = init_model(MLPSpec(input_dim=x.shape[1]), seeds[0])
    opt_gen = init_optimizer(cfg.generator_lr, gen)

    heads = {}  # one fairness head per stratum of the plan; head k seeds from child k
    fair_rows = None
    if cfg.lambda1 > 0:
        fair_rows = fairness_rows(z, _fairness_strata(cfg.fairness_criterion, y))
        heads = {s.key: new_fairness_adversary(train.z_cardinality, int(
                     np.random.SeedSequence(seeds[1], spawn_key=(s.key,)).generate_state(1)[0]))
                 for s in fair_rows.strata}
    robustness = rob_rows = None
    if cfg.lambda2 > 0:
        robustness = new_robustness_adversary(train.feature_dim, train.z_cardinality,
                                              ROBUST_HIDDEN, seeds[2])
        rob_rows = robustness_rows(robustness, train, val)

    history = TrainHistory()

    for _ in range(cfg.pretrain_epochs):
        cache = forward_with_cache(gen, x)
        _, d_l1 = weighted_cross_entropy_grad(cache.output.ravel(), y, w0)
        adam_step(gen, backward(gen, cache, (lam0 * d_l1)[:, None], input_grad=False), opt_gen)

    weights = w0
    fairness_released = False
    suspension_warned = False
    gate_epoch = int(UNFREEZE_EPOCH_FRACTION * cfg.epochs)

    for epoch in range(cfg.epochs):
        probs = forward(gen, x).ravel()
        preds = decide(probs)
        probe_acc = accuracy(preds, y)
        try:
            probe_di = disparate_impact(preds, z)
        except UndefinedGroupError:
            probe_di = float("nan")
        if not fairness_released and (probe_acc >= UNFREEZE_ACCURACY
                                      or epoch >= gate_epoch):
            fairness_released = True

        cache = forward_with_cache(gen, x)
        yhat = cache.output.ravel()
        for _ in range(cfg.update_ratio):
            if heads and fairness_released:
                ev = fairness_objective(heads, fair_rows, yhat, weights, prediction_grad=False)
                for key, grads in ev.head_grads.items():
                    sgd_step(heads[key], grads, -cfg.disc_lr)
            if robustness is not None:
                rv = robustness_objective(robustness, rob_rows, yhat)
                sgd_step(robustness, rv.grads, -cfg.disc_lr)

        l_c = l_d = r_gate = float("nan")
        rv = None
        if robustness is not None:
            rv = robustness_objective(robustness, rob_rows, yhat, param_grads=False)
        if cfg.reweight and rv is not None:
            l_c = weighted_cross_entropy(yhat, y, w0)
            l_d = rv.value
            if l_d <= 0.0 and not suspension_warned:
                logger.warning(
                    "re-weighting suspended while adversary payoff <= 0 "
                    "(first at payoff %.4g); weights stay 1 until it recovers", l_d)
                suspension_warned = True
            wt, r_gate = compute_example_weights(rv.label_scores, l_c, l_d,
                                                 cfg.c_threshold)
            weights = w0 * wt

        l1, d_l1 = weighted_cross_entropy_grad(yhat, y, weights)
        d_total = lam0 * d_l1
        l2 = 0.0
        if heads:
            ev = fairness_objective(heads, fair_rows, yhat, weights)
            l2 = ev.value
            d_total = d_total + cfg.lambda1 * ev.prediction_grad
        l3 = rv.value if rv is not None else 0.0
        if rv is not None:
            d_total = d_total + cfg.lambda2 * rv.prediction_grad
        total = lam0 * l1 + cfg.lambda1 * l2 + cfg.lambda2 * l3
        if not math.isfinite(total):
            raise TrainingDivergedError(
                f"non-finite objective (l1={l1}, l2={l2}, l3={l3})")
        adam_step(gen, backward(gen, cache, d_total[:, None], input_grad=False), opt_gen)

        history.append(l1=l1, l2=l2, l3=l3, l_c=l_c, l_d=l_d, r=r_gate,
                       probe_accuracy=probe_acc, probe_di=probe_di)

    return gen, history


def train_logistic_baseline(train: Dataset, cfg: TrainConfig) -> MLPModel:
    """Plain weighted-cross-entropy logistic model; no adversaries, no re-weighting."""
    base = replace(cfg, lambda1=0.0, lambda2=0.0, reweight=False)
    model, _ = train_fair_robust(train, None, base)
    return model

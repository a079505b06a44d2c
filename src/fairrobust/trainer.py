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
import json
import logging
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .adversaries import (
    fairness_objective,
    fairness_rows,
    new_fairness_adversary,
    new_robustness_adversary,
    robustness_objective,
    robustness_rows,
)
from .dataset import Dataset, derive_seed
from .metrics import (
    MetricsReport,
    UndefinedGroupError,
    accuracy,
    compute_report,
    disparate_impact,
    group_plan,
)
from .nnet import (
    CrossEntropy,
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
)

logger = logging.getLogger(__name__)

FAIRNESS_CRITERIA = ("DI", "EO", "EOPP")
ROBUST_HIDDEN = 8  # hidden ReLU units of the robustness adversary


class ConfigError(ValueError):
    """Invalid training configuration."""


@dataclass
class TrainConfig:
    """Knobs for one full-batch training run.

    ``lambda1`` and ``lambda2`` weight the fairness and robustness payoffs; the
    cross entropy is scaled by ``1 - lambda1 - lambda2``. ``update_ratio`` is
    the number of adversary ascent steps per generator step, and
    ``pretrain_epochs`` generator steps on the cross entropy alone come first.
    The model architecture is fixed (see the module constants).
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
        for name in ("generator_lr", "disc_lr"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ConfigError(f"{name} must be positive and finite")
        if not math.isfinite(self.c_threshold):
            raise ConfigError("c_threshold must be finite")
        if self.epochs < 1 or self.pretrain_epochs < 0:
            raise ConfigError("epochs must be >= 1 and pretrain_epochs >= 0")
        if self.update_ratio < 1:
            raise ConfigError("update_ratio must be >= 1")


# JSON kind of a bool, int, float or str value.
_JSON_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def from_json(cls, values, what: str = "a config"):
    """Build the dataclass ``cls`` from JSON ``values``, typed by its fields.

    ``ConfigError`` first names every key that no field reads, then those of
    each nested object (as ``base.epochs``), and next every field without a
    default that has no key. It then names the first value, in field order,
    whose JSON type does not fit its type: true or false for ``bool``, an
    integer but not a bool for ``int``, a number for ``float``, a string for
    ``str``, also null for ``X | None``, an object for a dataclass, which is
    read the same way, a list for ``list[X]``, whose items are each checked as
    an ``X``, and a list of exactly n items for ``tuple[X1, ..., Xn]``, whose
    items are each checked against their own type. Items are named by index
    (``seeds[1]``, ``cov_neg[0][1]``). Tuples are rebuilt from their lists;
    every other value passes unchanged, so an integer for a ``float`` field
    stays an integer. ``what`` names ``values`` when it is not an object.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"{what} must be a JSON object, not {type(values).__name__}")
    for problem, keys in zip(("unknown", "missing"), _key_errors(cls, values, "")):
        if keys:
            raise ConfigError(f"{problem} config keys: {', '.join(keys)}")
    return _from_json_object(cls, values, "")


def _key_errors(cls, values: dict, prefix: str) -> tuple[list[str], list[str]]:
    """(unknown keys, missing fields) of ``values`` and of its nested objects."""
    hints = get_type_hints(cls)
    unknown = [prefix + key for key in values if key not in hints]
    missing = [prefix + f.name for f in fields(cls) if f.name not in values
               and f.default is MISSING and f.default_factory is MISSING]
    for name, hint in hints.items():
        hint, _ = _nullable(hint)
        if is_dataclass(hint) and isinstance(values.get(name), dict):
            nested = _key_errors(hint, values[name], f"{prefix}{name}.")
            unknown, missing = unknown + nested[0], missing + nested[1]
    return unknown, missing


def _from_json_object(cls, values: dict, prefix: str):
    hints = get_type_hints(cls)
    return cls(**{name: _from_json_value(hint, values[name], prefix + name)
                  for name, hint in hints.items() if name in values})


def _from_json_value(hint, value, name: str):
    """``value`` of the field or item ``name``, whose type is ``hint``, checked and rebuilt."""
    hint, nullable = _nullable(hint)
    if value is None and nullable:
        return None
    origin, items = get_origin(hint) or hint, get_args(hint)
    if is_dataclass(hint):
        ok, kind = isinstance(value, dict), "a JSON object"
    elif origin in (list, tuple):
        ok, kind = isinstance(value, list), "a list"
    else:  # an integer is a number too, but a bool is neither
        ok = (isinstance(value, (int, float) if hint is float else hint)
              and (hint is bool or not isinstance(value, bool)))
        kind = _JSON_KINDS[hint]
    if not ok:
        or_null = " or null" if nullable else ""
        raise ConfigError(f"{name} must be {kind}{or_null}, not {json.dumps(value)}")
    if is_dataclass(hint):
        return _from_json_object(hint, value, name + ".")
    if origin is tuple and len(value) != len(items):
        raise ConfigError(f"{name} must be a list of {len(items)} items, not {json.dumps(value)}")
    if origin in (list, tuple):
        types = items * len(value) if origin is list else items
        return origin(_from_json_value(t, v, f"{name}[{i}]")
                      for i, (t, v) in enumerate(zip(types, value)))
    return value


def _nullable(hint):
    """(``X``, True) for the type ``X | None``, else (``hint``, False)."""
    args = get_args(hint)
    if type(None) not in args:
        return hint, False
    (inner,) = [arg for arg in args if arg is not type(None)]
    return inner, True


@dataclass
class _ModelFile:
    """The keys of a model file: a network's widths and its parameters."""

    spec: MLPSpec
    weights: list[list[list[float]]]
    biases: list[list[float]]


def save_model(model: MLPModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(_ModelFile(model.spec, [w.tolist() for w in model.weights],
                                    [b.tolist() for b in model.biases])), fh)


def load_model(path) -> MLPModel:
    """The model that ``save_model`` wrote to ``path``; ``ValueError`` for any
    other file, also for the ``Infinity`` and ``NaN`` that ``json`` parses."""
    with open(path, encoding="utf-8") as fh:
        payload = from_json(_ModelFile, json.load(fh), "a model file")
    model = MLPModel(payload.spec, payload.weights, payload.biases)
    if not np.isfinite(model.params).all():
        raise ValueError("non-finite parameters")
    return model


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
    """(features, one-hot z) rows: the (rows, features) view of (features, rows) memory."""
    onehot = np.zeros((z_cardinality, len(sensitive)))
    onehot[sensitive, np.arange(len(sensitive))] = 1.0
    return np.vstack([np.asarray(features).T, onehot]).T


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
    y_float = y.astype(np.float64)
    groups = group_plan(z)  # the probe's groups, checked and counted once
    lam0 = 1.0 - cfg.lambda1 - cfg.lambda2
    gen = init_model(MLPSpec(input_dim=x.shape[1]), derive_seed(cfg.seed, 0))
    opt_gen = init_optimizer(cfg.generator_lr, gen)

    heads = {}  # one fairness head per stratum of the plan; head k seeds from stream k of stream 1
    fair_rows = None
    if cfg.lambda1 > 0:
        fair_rows = fairness_rows(z, _fairness_strata(cfg.fairness_criterion, y))
        fair_seed = derive_seed(cfg.seed, 1)
        heads = {s.key: new_fairness_adversary(train.z_cardinality, derive_seed(fair_seed, s.key))
                 for s in fair_rows.strata}
    robustness = rob_rows = None
    if cfg.lambda2 > 0:
        robustness = new_robustness_adversary(train.feature_dim, train.z_cardinality,
                                              ROBUST_HIDDEN, derive_seed(cfg.seed, 2))
        rob_rows = robustness_rows(robustness, train, val)

    history = TrainHistory()

    for _ in range(cfg.pretrain_epochs):
        cache = forward_with_cache(gen, x)
        d_l1 = CrossEntropy(cache.output.ravel(), y_float).grad(w0)
        adam_step(gen, backward(gen, cache, (lam0 * d_l1)[:, None], input_grad=False), opt_gen)

    weights = w0
    for _ in range(cfg.epochs):
        probs = forward(gen, x).ravel()
        preds = decide(probs)
        probe_acc = accuracy(preds, y)
        try:
            probe_di = disparate_impact(preds, groups)
        except UndefinedGroupError:
            probe_di = float("nan")

        cache = forward_with_cache(gen, x)
        yhat = cache.output.ravel()
        for _ in range(cfg.update_ratio):
            if heads:
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
        ce = CrossEntropy(yhat, y_float)  # l_c and l1 share its per-row losses
        if cfg.reweight and rv is not None:
            l_c = ce.value(w0)
            l_d = rv.value
            wt, r_gate = compute_example_weights(rv.label_scores, l_c, l_d,
                                                 cfg.c_threshold)
            weights = w0 * wt

        l1, d_l1 = ce.value(weights), ce.grad(weights)
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

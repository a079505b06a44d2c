"""Accuracy, group-fairness metrics, per-group confusion matrices, and entropies."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class UndefinedGroupError(ValueError):
    """A required group or label stratum has no examples."""


def _as_int_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64).reshape(-1)


@dataclass(frozen=True)
class GroupPlan:
    """The groups of a fixed set of rows, checked and counted once.

    ``codes`` are the groups whose rates are reported, in increasing order.
    ``order`` lists the rows group by group in that order, ``starts`` is where
    each group begins in it and ``sizes`` how many rows it has, never 0.
    """

    codes: list[int]
    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


def group_plan(z, z_cardinality=None) -> GroupPlan:
    """The plan of every positive rate over rows with group codes ``z``.

    The codes are ``range(z_cardinality)`` when it is given, else those that
    occur; group codes must be nonnegative, and below ``z_cardinality`` when it
    is given, and every reported group must have a row.
    """
    z = _as_int_array(z)
    if len(z) == 0:
        raise UndefinedGroupError("empty input")
    if z.min() < 0:
        raise ValueError("group codes must be nonnegative")
    if z_cardinality and z.max() >= z_cardinality:
        raise ValueError(f"group code {z.max()} is outside [0, {z_cardinality})")
    counts = np.bincount(z, minlength=z_cardinality or 0)
    codes = np.arange(z_cardinality) if z_cardinality else np.flatnonzero(counts)
    absent = codes[counts[codes] == 0]
    if len(absent):
        raise UndefinedGroupError(f"group {int(absent[0])} absent")
    sizes = counts[codes]
    return GroupPlan(codes.tolist(), np.argsort(z, kind="stable"),
                     np.cumsum(sizes) - sizes, sizes)


def positive_rates(predictions, z, z_cardinality=None) -> dict[int, float]:
    """P(prediction = 1 | z = code) for each group code.

    ``z`` holds the group codes, checked as ``group_plan`` checks them, or is a
    ``GroupPlan`` built once for rows whose codes do not change. Each rate is a
    group's count of positives over its size, which for 0/1 predictions is the
    group's mean.
    """
    if isinstance(z, GroupPlan):
        if z_cardinality is not None:
            raise ValueError("a GroupPlan carries its own cardinality")
        plan = z
    else:
        plan = group_plan(z, z_cardinality)
    predictions = _as_int_array(predictions)
    if len(predictions) != len(plan.order):
        raise ValueError("predictions and z must have equal length")
    positives = np.add.reduceat(predictions[plan.order], plan.starts)
    return dict(zip(plan.codes, (positives / plan.sizes).tolist()))


def _rate_ratio(a: float, b: float) -> float:
    # Zero conventions: no positives anywhere is maximally fair; positives in
    # only one group is maximally unfair.
    if a == 0.0 and b == 0.0:
        return 1.0
    if a == 0.0 or b == 0.0:
        return 0.0
    return min(a / b, b / a)


def disparate_impact(predictions, z, z_cardinality=None) -> float:
    """Minimum pairwise ratio of groupwise positive-prediction rates; 1 is fair.

    With more than two groups, the minimum runs over all pairs. ``z`` is as in
    ``positive_rates``.
    """
    rates = list(positive_rates(predictions, z, z_cardinality).values())
    if len(rates) < 2:
        raise UndefinedGroupError("disparate impact needs at least two groups")
    return min(
        _rate_ratio(rates[i], rates[j])
        for i in range(len(rates))
        for j in range(i + 1, len(rates))
    )


def equalized_odds(predictions, z, labels, z_cardinality=None) -> dict[int, float]:
    """Per label value, the min groupwise positive-rate ratio among predictions.

    A stratum where some group is absent is undefined and omitted from the map.
    """
    predictions = _as_int_array(predictions)
    z = _as_int_array(z)
    labels = _as_int_array(labels)
    if not (len(predictions) == len(z) == len(labels)):
        raise ValueError("inputs must have equal length")
    out: dict[int, float] = {}
    for y in sorted(np.unique(labels)):
        mask = labels == y
        try:
            out[int(y)] = disparate_impact(predictions[mask], z[mask], z_cardinality)
        except UndefinedGroupError:
            continue
    return out


def accuracy(predictions, labels) -> float:
    """The share of correct predictions: their count over the number of rows,
    which is the mean of ``predictions == labels``."""
    predictions = _as_int_array(predictions)
    labels = _as_int_array(labels)
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must have equal length")
    if len(labels) == 0:
        raise ValueError("empty input")
    return np.count_nonzero(predictions == labels) / len(labels)


def confusion_by_group(predictions, labels, z) -> dict[int, np.ndarray]:
    """Per-group 2x2 count matrices, rows = true label, columns = prediction, for
    each nonnegative group code that occurs; predictions and labels are 0 or 1."""
    predictions = _as_int_array(predictions)
    labels = _as_int_array(labels)
    z = _as_int_array(z)
    if not (len(predictions) == len(labels) == len(z)):
        raise ValueError("inputs must have equal length")
    if len(z) == 0:
        raise ValueError("empty input")
    if z.min() < 0:
        raise ValueError("group codes must be nonnegative")
    for name, values in (("predictions", predictions), ("labels", labels)):
        if ((values != 0) & (values != 1)).any():
            raise ValueError(f"{name} must be 0 or 1")
    table = np.bincount(4 * z + 2 * labels + predictions,
                        minlength=4 * (z.max() + 1)).reshape(-1, 2, 2)
    return {int(code): table[code] for code in np.flatnonzero(table.any(axis=(1, 2)))}


def empirical_entropy(codes) -> float:
    """Entropy of the empirical distribution, in nats; 0 log 0 counts as 0."""
    codes = _as_int_array(codes)
    if len(codes) == 0:
        raise ValueError("empty input")
    _, counts = np.unique(codes, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


@dataclass
class MetricsReport:
    """Evaluation summary for one model on one dataset."""

    accuracy: float
    disparate_impact: float
    equalized_odds: dict[int, float]
    equal_opportunity: float | None
    group_confusion: dict[int, np.ndarray] = field(repr=False)
    entropy_z: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "disparate_impact": self.disparate_impact,
            "equalized_odds": {str(k): v for k, v in self.equalized_odds.items()},
            "equal_opportunity": self.equal_opportunity,
            "group_confusion": {
                str(k): v.tolist() for k, v in self.group_confusion.items()
            },
            "entropy_z": self.entropy_z,
        }


def compute_report(predictions, labels, z, z_cardinality=None) -> MetricsReport:
    eo = equalized_odds(predictions, z, labels, z_cardinality)
    return MetricsReport(
        accuracy=accuracy(predictions, labels),
        disparate_impact=disparate_impact(predictions, z, z_cardinality),
        equalized_odds=eo,
        equal_opportunity=eo.get(1),
        group_confusion=confusion_by_group(predictions, labels, z),
        entropy_z=empirical_entropy(z),
    )

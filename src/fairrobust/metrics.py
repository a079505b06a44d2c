"""Accuracy, group-fairness metrics, per-group confusion matrices, and entropies."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class UndefinedGroupError(ValueError):
    """A required group or label stratum has no examples."""


def _as_int_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64).reshape(-1)


def positive_rates(predictions, z, z_cardinality=None) -> dict[int, float]:
    """P(prediction = 1 | z = code) for each group code.

    The codes are ``range(z_cardinality)`` when it is given, else those that
    occur; group codes must be nonnegative. Each rate is a group's count of
    positives over its size, which for 0/1 predictions is the group's mean.
    """
    predictions = _as_int_array(predictions)
    z = _as_int_array(z)
    if len(predictions) != len(z):
        raise ValueError("predictions and z must have equal length")
    if len(z) == 0:
        raise UndefinedGroupError("empty input")
    if z.min() < 0:
        raise ValueError("group codes must be nonnegative")
    counts = np.bincount(z, minlength=z_cardinality or 0)
    positives = np.bincount(z, weights=predictions, minlength=z_cardinality or 0)
    codes = range(z_cardinality) if z_cardinality else np.flatnonzero(counts)
    rates = {}
    for code in codes:
        if counts[code] == 0:
            raise UndefinedGroupError(f"group {int(code)} absent")
        rates[int(code)] = float(positives[code] / counts[code])
    return rates


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

    With more than two groups, the minimum runs over all pairs.
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
    predictions = _as_int_array(predictions)
    labels = _as_int_array(labels)
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must have equal length")
    if len(labels) == 0:
        raise ValueError("empty input")
    return float((predictions == labels).mean())


def confusion_by_group(predictions, labels, z) -> dict[int, np.ndarray]:
    """Per-group 2x2 count matrices, rows = true label, columns = prediction."""
    predictions = _as_int_array(predictions)
    labels = _as_int_array(labels)
    z = _as_int_array(z)
    if not (len(predictions) == len(labels) == len(z)):
        raise ValueError("inputs must have equal length")
    if len(z) == 0:
        raise ValueError("empty input")
    out = {}
    for code in np.unique(z):
        mask = z == code
        mat = np.zeros((2, 2), dtype=np.int64)
        for y, p in zip(labels[mask], predictions[mask]):
            mat[y, p] += 1
        out[int(code)] = mat
    return out


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

"""Accuracy, group-fairness metrics, per-group confusion matrices, and entropies.

Every per-group rate and count is read off a ``GroupPlan``: the rows' group
codes are checked and ordered once by ``group_plan``, and each per-group sum is
one ``np.add.reduceat`` over that order. The training probe builds its plan once
per run; ``compute_report`` builds one per report and reads disparate impact,
equalized odds and the confusion tables off it.
"""

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


def _group_sums(plan: GroupPlan, values: np.ndarray) -> np.ndarray:
    """Per group of ``plan``, in its code order, the sum of ``values`` over the
    group's rows (along the first axis)."""
    return np.add.reduceat(values[plan.order], plan.starts)


def _rate_ratio(a: float, b: float) -> float:
    # Zero conventions: no positives anywhere is maximally fair; positives in
    # only one group is maximally unfair.
    if a == 0.0 and b == 0.0:
        return 1.0
    if a == 0.0 or b == 0.0:
        return 0.0
    return min(a / b, b / a)


def _min_ratio(rates: list[float]) -> float:
    """The minimum ratio of positive rates over all pairs of groups."""
    if len(rates) < 2:
        raise UndefinedGroupError("disparate impact needs at least two groups")
    return min(_rate_ratio(a, b) for i, a in enumerate(rates) for b in rates[i + 1:])


def disparate_impact(predictions, z, z_cardinality=None) -> float:
    """Minimum pairwise ratio of groupwise positive-prediction rates; 1 is fair.

    With more than two groups, the minimum runs over all pairs. ``z`` holds the
    group codes, checked as ``group_plan`` checks them, or is a ``GroupPlan``
    built once for rows whose codes do not change. Each rate is a group's
    count of positives over its size, which for 0/1 predictions is the group's
    mean.
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
    return _min_ratio((_group_sums(plan, predictions) / plan.sizes).tolist())


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
    """The report of 0/1 ``predictions`` against 0/1 ``labels`` over rows with
    group codes ``z``, read off one ``GroupPlan``.

    Equalized odds holds, per label, the disparate impact among that label's
    rows; a label is left out when a reported group has none of its rows
    (with ``z_cardinality`` unset, a label's groups are those that have its
    rows) or when fewer than two groups do. ``group_confusion`` holds each
    reported group's 2x2 counts, rows = true label, columns = prediction.
    """
    predictions = _as_int_array(predictions)
    labels = _as_int_array(labels)
    z = _as_int_array(z)
    if not (len(predictions) == len(labels) == len(z)):
        raise ValueError("inputs must have equal length")
    for name, values in (("predictions", predictions), ("labels", labels)):
        if ((values != 0) & (values != 1)).any():
            raise ValueError(f"{name} must be 0 or 1")
    plan = group_plan(z, z_cardinality)
    cells = np.eye(4, dtype=np.int64)[2 * labels + predictions]
    counts = _group_sums(plan, cells).reshape(-1, 2, 2)  # (group, label, prediction)
    eo: dict[int, float] = {}
    for y in (0, 1):
        rows = counts[:, y].sum(axis=1)
        present = rows > 0
        if present.sum() >= 2 and (present.all() or not z_cardinality):
            eo[y] = _min_ratio((counts[present, y, 1] / rows[present]).tolist())
    return MetricsReport(
        accuracy=accuracy(predictions, labels),
        disparate_impact=disparate_impact(predictions, plan),
        equalized_odds=eo,
        equal_opportunity=eo.get(1),
        group_confusion=dict(zip(plan.codes, counts)),
        entropy_z=empirical_entropy(z),
    )

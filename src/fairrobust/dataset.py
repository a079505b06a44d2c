"""Dataset types, synthetic data generation, CSV I/O, splitting, and crowd-label aggregation."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Malformed data: bad CSV cell, schema violation, or invalid generator spec."""


class Dataset:
    """Ordered, immutable collection of examples backed by numpy arrays.

    Arrays are marked read-only after construction, so a Dataset can be shared
    freely across concurrent tasks. ``poisoned_indices`` records which rows had
    their labels flipped by a poisoning attack, when known.
    """

    def __init__(
        self,
        features,
        sensitive,
        labels,
        weights=None,
        z_cardinality: int = 2,
        poisoned_indices=None,
    ):
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.size == 0:
            features = features.reshape(0, features.shape[1] if features.ndim == 2 and features.shape[1] else 1)
        sensitive = np.asarray(sensitive, dtype=np.int64).reshape(-1)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        n = features.shape[0]
        if weights is None:
            weights = np.ones(n, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if not (len(sensitive) == len(labels) == len(weights) == n):
            raise DataError("features, sensitive, labels, weights must have equal length")
        if z_cardinality < 2:
            raise DataError(f"z_cardinality must be >= 2, got {z_cardinality}")
        for name, arr in (("features", features), ("weights", weights)):
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                at = tuple(bad[0].tolist())
                raise DataError(f"{name}{list(at)} is non-finite ({arr[at]})")
        if n:
            if sensitive.min() < 0 or sensitive.max() >= z_cardinality:
                raise DataError("sensitive codes must lie in [0, z_cardinality)")
            if not np.isin(labels, (0, 1)).all():
                raise DataError("labels must be binary (0 or 1)")
            if weights.min() < 0:
                raise DataError("weights must be nonnegative")
        if poisoned_indices is not None:
            poisoned_indices = frozenset(int(i) for i in poisoned_indices)
            if any(i < 0 or i >= n for i in poisoned_indices):
                raise DataError("poisoned_indices out of range")
        for arr in (features, sensitive, labels, weights):
            arr.setflags(write=False)
        self.features = features
        self.sensitive = sensitive
        self.labels = labels
        self.weights = weights
        self.z_cardinality = int(z_cardinality)
        self.poisoned_indices = poisoned_indices

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.features, other.features)
            and np.array_equal(self.sensitive, other.sensitive)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.weights, other.weights)
            and self.z_cardinality == other.z_cardinality
            and self.poisoned_indices == other.poisoned_indices
        )

    def subset(self, indices) -> "Dataset":
        """New dataset containing the given rows, poisoned indices remapped."""
        indices = np.asarray(indices, dtype=np.int64)
        poisoned = None
        if self.poisoned_indices is not None:
            pos = {int(orig): new for new, orig in enumerate(indices)}
            poisoned = {pos[i] for i in self.poisoned_indices if i in pos}
        return Dataset(
            self.features[indices],
            self.sensitive[indices],
            self.labels[indices],
            self.weights[indices],
            z_cardinality=self.z_cardinality,
            poisoned_indices=poisoned,
        )


@dataclass
class SyntheticSpec:
    """Two-Gaussian binary-label generator with a density-ratio sensitive attribute.

    Defaults reproduce the standard benchmark: class-conditional Gaussians
    N([-2,-2],[[10,1],[1,3]]) and N([2,2],[[5,1],[1,5]]), a quarter-turn
    rotation for the sensitive-attribute rule, and a balanced label prior.
    The default rotation sense (-pi/4 under the row convention used in
    ``sensitive_probability``) is the one that yields the benchmark's
    reference measurements; +pi/4 produces a much more biased dataset.
    """

    n: int = 2000
    mean_neg: tuple = (-2.0, -2.0)
    cov_neg: tuple = ((10.0, 1.0), (1.0, 3.0))
    mean_pos: tuple = (2.0, 2.0)
    cov_pos: tuple = ((5.0, 1.0), (1.0, 5.0))
    rotation_angle: float = -math.pi / 4
    label_prior: float = 0.5

    def __post_init__(self):
        if self.n < 0:
            raise DataError("n must be nonnegative")
        if not 0.0 < self.label_prior < 1.0:
            raise DataError("label_prior must lie in (0, 1)")
        for name in ("cov_neg", "cov_pos"):
            cov = np.asarray(getattr(self, name), dtype=np.float64)
            if cov.shape != (2, 2) or not np.allclose(cov, cov.T):
                raise DataError(f"{name} must be a symmetric 2x2 matrix")
            if np.linalg.eigvalsh(cov).min() <= 0:
                raise DataError(f"{name} must be positive-definite")


def _gaussian2_pdf(points: np.ndarray, mean, cov) -> np.ndarray:
    """Bivariate normal density evaluated row-wise."""
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    d = np.atleast_2d(points) - mean
    quad = np.einsum("ni,ij,nj->n", d, inv, d)
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def sensitive_probability(spec: SyntheticSpec, points: np.ndarray) -> np.ndarray:
    """P(z=1 | x): positive-class density share at the rotated point."""
    theta = spec.rotation_angle
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    rotated = np.atleast_2d(points) @ rot.T
    f_pos = _gaussian2_pdf(rotated, spec.mean_pos, spec.cov_pos)
    f_neg = _gaussian2_pdf(rotated, spec.mean_neg, spec.cov_neg)
    return f_pos / (f_neg + f_pos)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Draw a dataset from the two-Gaussian model; bit-identical for a fixed seed.

    Labels are Bernoulli(label_prior); features come from the label's Gaussian;
    the sensitive bit is Bernoulli with p(z=1) given by the rotated density ratio.
    """
    rng = np.random.default_rng(seed)
    n = spec.n
    labels = (rng.random(n) < spec.label_prior).astype(np.int64)
    features = np.zeros((n, 2), dtype=np.float64)
    pos = labels == 1
    features[pos] = rng.multivariate_normal(
        spec.mean_pos, spec.cov_pos, size=int(pos.sum()), method="cholesky"
    )
    features[~pos] = rng.multivariate_normal(
        spec.mean_neg, spec.cov_neg, size=int((~pos).sum()), method="cholesky"
    )
    p_z1 = sensitive_probability(spec, features) if n else np.zeros(0)
    sensitive = (rng.random(n) < p_z1).astype(np.int64)
    return Dataset(features, sensitive, labels, z_cardinality=2)


def split(d: Dataset, fractions, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint (train, val, test) partition by shuffled indices.

    Val/test sizes are floor-rounded; the remainder goes to train. Deterministic
    for a fixed seed.
    """
    f_train, f_val, f_test = fractions
    if min(f_train, f_val, f_test) < 0:
        raise DataError("fractions must be nonnegative")
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise DataError("fractions must sum to 1")
    n = len(d)
    n_val = int(math.floor(n * f_val))
    n_test = int(math.floor(n * f_test))
    n_train = n - n_val - n_test
    perm = np.random.default_rng(seed).permutation(n)
    return (
        d.subset(perm[:n_train]),
        d.subset(perm[n_train : n_train + n_val]),
        d.subset(perm[n_train + n_val :]),
    )


def save_csv(d: Dataset, path) -> None:
    """Write ``x0..x{d-1}, z, y, w`` rows; floats use shortest round-trip form."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(d.feature_dim)] + ["z", "y", "w"])
        for i in range(len(d)):
            writer.writerow(
                [repr(float(v)) for v in d.features[i]]
                + [int(d.sensitive[i]), int(d.labels[i]), repr(float(d.weights[i]))]
            )


def load_csv(path) -> Dataset:
    """Load a dataset from CSV.

    Columns ``z`` (group code) and ``y`` (0/1 label) are required and ``w``
    (example weight, default 1) is optional; every other column is a feature,
    in header order. Errors name the offending row (1-based data row) and column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in ("z", "y"):
            if col not in header:
                raise DataError(f"missing required column {col!r}")
        feature_columns = [c for c in header if c not in ("z", "y", "w")]
        has_weight = "w" in header
        features, sensitive, labels, weights = [], [], [], []
        for row_num, row in enumerate(reader, start=1):
            def cell(col, kind, row=row, row_num=row_num):
                raw = row.get(col)
                if raw is None or raw == "":
                    raise DataError(f"row {row_num}: missing value in column {col!r}")
                try:
                    value = kind(raw)
                except ValueError:
                    raise DataError(
                        f"row {row_num}: non-numeric value {raw!r} in column {col!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"row {row_num}: non-finite value {raw!r} in column {col!r}")
                return value

            features.append([cell(c, float) for c in feature_columns])
            z = cell("z", int)
            y = cell("y", int)
            if y not in (0, 1):
                raise DataError(f"row {row_num}: label {y} out of range in column 'y'")
            if z < 0:
                raise DataError(f"row {row_num}: sensitive code {z} out of range in column 'z'")
            sensitive.append(z)
            labels.append(y)
            weights.append(cell("w", float) if has_weight else 1.0)
    features_arr = np.asarray(features, dtype=np.float64)
    return Dataset(features_arr.reshape(len(features), len(feature_columns)), sensitive, labels,
                   weights, z_cardinality=max(2, max(sensitive, default=0) + 1))


@dataclass(frozen=True)
class CrowdResponse:
    """One worker's 1-4 rating of one question."""

    question_id: int
    worker_id: int
    rating: int

    def __post_init__(self):
        if self.rating not in (1, 2, 3, 4):
            raise DataError(f"rating must be in 1..4, got {self.rating}")


def aggregate_crowd_labels(responses, n_max: int, threshold: float = 2.5) -> dict[int, int]:
    """Average the first ``n_max`` ratings per question; label 1 iff mean >= threshold.

    Questions with no responses are omitted.
    """
    if n_max < 1:
        raise DataError("n_max must be >= 1")
    buckets: dict[int, list[int]] = {}
    for r in responses:
        bucket = buckets.setdefault(r.question_id, [])
        if len(bucket) < n_max:
            bucket.append(r.rating)
    return {
        qid: int(sum(ratings) / len(ratings) >= threshold)
        for qid, ratings in buckets.items()
    }


def filter_workers(responses, gold: dict[int, int], min_accuracy: float):
    """Drop every response from workers scoring below ``min_accuracy`` on gold questions.

    A rating is binarized at 2.5 before comparison with the gold label. Workers
    who answered no gold questions are retained.
    """
    if not gold:
        raise DataError("gold answer set must be nonempty")
    correct: dict[int, int] = {}
    total: dict[int, int] = {}
    for r in responses:
        if r.question_id in gold:
            total[r.worker_id] = total.get(r.worker_id, 0) + 1
            if int(r.rating >= 2.5) == gold[r.question_id]:
                correct[r.worker_id] = correct.get(r.worker_id, 0) + 1
    dropped = {
        w for w, t in total.items() if correct.get(w, 0) / t < min_accuracy
    }
    return [r for r in responses if r.worker_id not in dropped]


def load_crowd_csv(path) -> list[CrowdResponse]:
    """Read ``question_id, worker_id, rating`` rows."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for col in ("question_id", "worker_id", "rating"):
            if col not in (reader.fieldnames or []):
                raise DataError(f"missing required column {col!r}")
        for row_num, row in enumerate(reader, start=1):
            try:
                out.append(
                    CrowdResponse(
                        int(row["question_id"]), int(row["worker_id"]), int(row["rating"])
                    )
                )
            except ValueError:
                raise DataError(f"row {row_num}: non-integer cell") from None
    return out

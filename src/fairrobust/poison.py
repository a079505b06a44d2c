"""Group-targeted label-flipping attack for poisoning training data."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset
from .trainer import (ConfigError, TrainConfig, model_inputs, predict,
                      train_logistic_baseline)


POISON_STRATEGIES = ("degradation-surrogate", "random")


class PoisonBudgetError(DataError):
    """Requested flips exceed the target group's size."""


@dataclass
class PoisonSpec:
    """Label-flip attack: flip ``fraction`` of the whole dataset, inside one group.

    ``degradation-surrogate`` flips the examples a clean reference classifier is
    most confidently right about, which degrades accuracy the most among cheap
    deterministic choices; ``random`` flips uniformly within the group.
    """

    group: int
    fraction: float
    strategy: str = "degradation-surrogate"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError("fraction must lie in [0, 1]")
        if self.strategy not in POISON_STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")


def train_surrogate(d: Dataset, seed: int):
    """The clean reference model that ``degradation-surrogate`` ranks rows with.

    ``flip_labels`` trains it on the dataset it poisons, with the spec's seed,
    unless it is handed one; a caller that poisons one dataset at several
    fractions can train it once and pass it to every call.
    """
    cfg = TrainConfig(epochs=800, pretrain_epochs=0, generator_lr=0.05, reweight=False, seed=seed)
    return train_logistic_baseline(d, cfg)


def flip_labels(d: Dataset, spec: PoisonSpec, reference_model=None) -> tuple[Dataset, list[int]]:
    """Flip ceil(fraction * len(d)) labels inside the target group.

    Returns the poisoned dataset and the flipped row indices; the dataset's
    ``poisoned_indices`` holds these flips and every row the input recorded,
    also when there is nothing to flip. Deterministic given the spec's seed;
    rows that are not flipped are bit-identical to the input.
    ``degradation-surrogate`` ranks rows with ``reference_model`` and trains
    it when it is None and there is something to flip.
    """
    n = len(d)
    n_flips = int(math.ceil(spec.fraction * n))
    group_idx = np.flatnonzero(d.sensitive == spec.group)
    if n_flips > len(group_idx):
        raise PoisonBudgetError(
            f"{n_flips} flips requested but group {spec.group} has only "
            f"{len(group_idx)} examples"
        )
    if n_flips == 0:
        chosen = []
    elif spec.strategy == "random":
        rng = np.random.default_rng(spec.seed)
        chosen = rng.choice(group_idx, size=n_flips, replace=False)
    else:
        if reference_model is None:
            reference_model = train_surrogate(d, spec.seed)
        group = d.subset(group_idx)
        probs = predict(reference_model, model_inputs(reference_model, group))
        margin = np.where(d.labels[group_idx] == 1, probs, 1.0 - probs)
        # Stable sort so ties break toward lower row index.
        order = np.argsort(-margin, kind="stable")
        chosen = group_idx[order[:n_flips]]
    flipped = sorted(int(i) for i in chosen)
    labels = d.labels.copy()
    labels[flipped] = 1 - labels[flipped]
    return Dataset(d.features, d.sensitive, labels, d.weights, z_cardinality=d.z_cardinality,
                   poisoned_indices=set(flipped) | (d.poisoned_indices or set())), flipped

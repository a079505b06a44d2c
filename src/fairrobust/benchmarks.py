"""Standard synthetic benchmark: fixed generator spec, split, and tuned configs.

Everything the experiment scripts and the acceptance suite share lives here so
the numbers they report come from one place: the data pipeline (generate,
three-way split, optional label-flip poisoning of the training part only) and
the tuned training configurations for the clean and poisoned settings.
"""

from __future__ import annotations

from dataclasses import replace

from .dataset import Dataset, SyntheticSpec, derive_seed, generate_synthetic, split
from .poison import PoisonSpec, flip_labels
from .trainer import TrainConfig

STANDARD_SPEC = SyntheticSpec()  # 2000 rows, two-Gaussian defaults
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)
POISON_GROUP = 1

# Seed families used by scripts and the acceptance suite.
BENCHMARK_SEEDS = tuple(range(10))


def benchmark_datasets(seed: int, poison_fraction: float = 0.0
                       ) -> tuple[Dataset, Dataset, Dataset]:
    """(train, val, test) for one benchmark seed.

    The validation and test parts are always clean; poisoning applies to the
    training part only.
    """
    return make_datasets(seed, SPLIT_FRACTIONS, poison_fraction, POISON_GROUP,
                         "degradation-surrogate")


def make_datasets(seed: int, fractions, poison_fraction: float, poison_group: int,
                  poison_strategy: str, synthetic: SyntheticSpec = STANDARD_SPEC,
                  loaded=None, reference_model=None) -> tuple[Dataset, Dataset, Dataset]:
    """The one data pipeline: generate, split, poison the training part.

    Streams 0, 1 and 2 of ``seed`` (``derive_seed``) drive generation, the
    split and the poisoning; the tuned configs take stream 3. ``loaded`` is
    (train, val or None, test) read from files; it replaces generation, and
    without a validation part the training rows are split by exactly
    ``fractions``, whose test share the caller sets to 0. ``reference_model``
    goes to ``flip_labels``.
    """
    if loaded is None:
        ds = generate_synthetic(synthetic, derive_seed(seed, 0))
        train, val, test = split(ds, fractions, derive_seed(seed, 1))
    else:
        train, val, test = loaded
        if val is None:
            train, val, _ = split(train, fractions, derive_seed(seed, 1))
    if poison_fraction > 0:
        spec = PoisonSpec(
            group=poison_group,
            fraction=poison_fraction,
            strategy=poison_strategy,
            seed=derive_seed(seed, 2),
        )
        train, _ = flip_labels(train, spec, reference_model)
    return train, val, test


def clean_config(seed: int) -> TrainConfig:
    """Tuned configuration for clean data (small robustness knob)."""
    return TrainConfig(
        lambda1=0.70,
        lambda2=0.10,
        c_threshold=1.0,
        generator_lr=0.01,
        disc_lr=0.05,
        epochs=2000,
        pretrain_epochs=200,
        update_ratio=3,
        reweight=True,
        seed=derive_seed(seed, 3),
    )


def poisoned_config(seed: int) -> TrainConfig:
    """Tuned configuration for poisoned data (robustness knob raised)."""
    return replace(clean_config(seed), lambda1=0.50, lambda2=0.40)


def baseline_config(seed: int) -> TrainConfig:
    """Logistic-regression baseline: cross entropy only."""
    return TrainConfig(
        lambda1=0.0,
        lambda2=0.0,
        generator_lr=0.01,
        epochs=2000,
        pretrain_epochs=0,
        reweight=False,
        seed=derive_seed(seed, 3),
    )


def eo_config(seed: int) -> TrainConfig:
    """Tuned configuration for equalized-odds training on clean data."""
    return replace(clean_config(seed), fairness_criterion="EO")

import numpy as np
import pytest

from fairrobust import poison
from fairrobust.benchmarks import benchmark_datasets, baseline_config
from fairrobust.dataset import SyntheticSpec, generate_synthetic
from fairrobust.poison import PoisonBudgetError, PoisonSpec, flip_labels
from fairrobust.trainer import evaluate_model, train_logistic_baseline


@pytest.fixture(scope="module")
def clean():
    return generate_synthetic(SyntheticSpec(n=2000), seed=0)


def test_exact_flip_count_within_group(clean):
    poisoned, flipped = flip_labels(clean, PoisonSpec(1, 0.10, "random", seed=1))
    assert len(flipped) == 200
    assert all(clean.sensitive[i] == 1 for i in flipped)
    assert all(poisoned.labels[i] == 1 - clean.labels[i] for i in flipped)
    assert poisoned.poisoned_indices == set(flipped)


def test_zero_fraction_is_identity(clean):
    poisoned, flipped = flip_labels(clean, PoisonSpec(1, 0.0, "random", seed=1))
    assert flipped == []
    assert np.array_equal(poisoned.labels, clean.labels)
    assert poisoned.poisoned_indices == set()


@pytest.mark.parametrize("fraction", [0.0, 0.01])
def test_earlier_flips_stay_recorded(clean, fraction):
    once, first = flip_labels(clean, PoisonSpec(1, 0.05, "random", seed=1))
    twice, second = flip_labels(once, PoisonSpec(1, fraction, "random", seed=2))
    assert len(second) == int(np.ceil(fraction * len(clean)))
    assert twice.poisoned_indices == set(first) | set(second)


def test_zero_flips_train_no_surrogate(clean, monkeypatch):
    monkeypatch.setattr(poison, "train_surrogate", None)  # a call would raise
    poisoned, flipped = flip_labels(clean, PoisonSpec(1, 0.0))
    assert flipped == [] and np.array_equal(poisoned.labels, clean.labels)


def test_untouched_rows_bit_identical(clean):
    poisoned, flipped = flip_labels(clean, PoisonSpec(1, 0.05, "random", seed=2))
    mask = np.ones(len(clean), dtype=bool)
    mask[flipped] = False
    assert np.array_equal(poisoned.features, clean.features)
    assert np.array_equal(poisoned.labels[mask], clean.labels[mask])
    assert np.array_equal(poisoned.sensitive, clean.sensitive)


@pytest.mark.parametrize("strategy", ["random", "degradation-surrogate"])
def test_deterministic_flip_set(clean, strategy):
    spec = PoisonSpec(1, 0.08, strategy, seed=5)
    _, a = flip_labels(clean, spec)
    _, b = flip_labels(clean, spec)
    assert a == b


def test_budget_exceeding_group_size_errors(clean):
    group_share = (clean.sensitive == 0).mean()
    with pytest.raises(PoisonBudgetError):
        flip_labels(clean, PoisonSpec(0, group_share + 0.05, "random", seed=0))


def test_surrogate_degrades_at_least_as_much_as_random():
    train, _, test = benchmark_datasets(0)
    results = {}
    for strategy in ("degradation-surrogate", "random"):
        poisoned, _ = flip_labels(train, PoisonSpec(1, 0.10, strategy, seed=3))
        model = train_logistic_baseline(poisoned, baseline_config(0))
        results[strategy] = evaluate_model(model, test).accuracy
    assert results["degradation-surrogate"] <= results["random"]


def test_surrogate_accepts_reference_model(clean):
    ref = train_logistic_baseline(clean, baseline_config(0))
    _, flipped = flip_labels(clean, PoisonSpec(1, 0.02, seed=0), reference_model=ref)
    assert len(flipped) == 40

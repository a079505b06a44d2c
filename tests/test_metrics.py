import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrobust.metrics import (
    _rate_ratio,
    UndefinedGroupError,
    accuracy,
    compute_report,
    confusion_by_group,
    disparate_impact,
    empirical_entropy,
    equalized_odds,
    positive_rates,
)


def _group_fixture(rate_a, rate_b, per_group=10):
    """Predictions with exact positive rates rate_a (z=0) and rate_b (z=1)."""
    z = [0] * per_group + [1] * per_group
    preds = [1] * int(rate_a * per_group) + [0] * (per_group - int(rate_a * per_group))
    preds += [1] * int(rate_b * per_group) + [0] * (per_group - int(rate_b * per_group))
    return preds, z


def test_di_published_ratio():
    preds, z = _group_fixture(0.8, 0.4)
    assert disparate_impact(preds, z) == pytest.approx(0.5)


def test_di_equal_rates():
    preds, z = _group_fixture(0.6, 0.6)
    assert disparate_impact(preds, z) == pytest.approx(1.0)


def test_di_two_thirds():
    preds, z = _group_fixture(0.6, 0.4)
    assert disparate_impact(preds, z) == pytest.approx(2 / 3, abs=1e-9)


def test_di_zero_conventions():
    preds, z = _group_fixture(0.0, 0.0)
    assert disparate_impact(preds, z) == 1.0
    preds, z = _group_fixture(0.5, 0.0)
    assert disparate_impact(preds, z) == 0.0


def test_di_absent_group_errors():
    with pytest.raises(UndefinedGroupError):
        disparate_impact([1, 0, 1], [0, 0, 0], z_cardinality=2)


def test_di_multigroup_min_over_pairs():
    preds = [1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0]
    z = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    # rates: 0.75, 0.25, 0.25 -> worst pair 1/3
    assert disparate_impact(preds, z) == pytest.approx(1 / 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=4, max_size=60),
       st.randoms())
def test_di_group_swap_and_permutation_invariance(pairs, rnd):
    preds = [p for p, _ in pairs]
    z = [g for _, g in pairs]
    if len(set(z)) < 2:
        z[0], z[-1] = 0, 1
    base = disparate_impact(preds, z)
    swapped = disparate_impact(preds, [1 - g for g in z])
    assert swapped == pytest.approx(base)
    order = list(range(len(preds)))
    rnd.shuffle(order)
    permuted = disparate_impact([preds[i] for i in order], [z[i] for i in order])
    assert permuted == pytest.approx(base)


def _masked_rates(predictions, z, z_cardinality=None):
    """Reference: the mean prediction under a boolean mask per group."""
    predictions = np.asarray(predictions, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    rates = {}
    for code in range(z_cardinality) if z_cardinality else np.unique(z):
        mask = z == code
        if not mask.any():
            raise UndefinedGroupError(f"group {int(code)} absent")
        rates[int(code)] = float(predictions[mask].mean())
    return rates


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UndefinedGroupError:
        return UndefinedGroupError


def _masked_di(predictions, z, z_cardinality=None):
    rates = list(_masked_rates(predictions, z, z_cardinality).values())
    if len(rates) < 2:
        raise UndefinedGroupError("fewer than two groups")
    return min(_rate_ratio(a, b) for i, a in enumerate(rates) for b in rates[i + 1:])


def test_counted_rates_equal_masked_means_bit_for_bit():
    rng = np.random.default_rng(7)
    undefined = 0
    for _ in range(3000):
        n = int(rng.integers(1, 80))
        present = rng.choice(7, size=int(rng.integers(1, 5)), replace=False)  # codes with gaps
        z = rng.choice(present, size=n)
        preds = (rng.random(n) < rng.random()).astype(np.int64)
        for card in (None, int(rng.integers(1, 8))):
            want = _outcome(_masked_rates, preds, z, card)
            assert _outcome(positive_rates, preds, z, card) == want
            assert _outcome(disparate_impact, preds, z, card) == _outcome(_masked_di, preds, z, card)
            undefined += want is UndefinedGroupError
    assert undefined > 100  # the absent-group cases were exercised


def test_positive_rates_rejects_negative_group_code():
    with pytest.raises(ValueError, match="nonnegative"):
        positive_rates([1, 0, 1], [0, -1, 1])
    with pytest.raises(ValueError, match="nonnegative"):
        disparate_impact([1, 0, 1], [0, -1, 1], z_cardinality=2)


def test_equalized_odds_equal_conditional_rates():
    preds = [1, 0, 1, 0, 1, 1, 1, 1]
    z = [0, 0, 1, 1, 0, 0, 1, 1]
    y = [0, 0, 0, 0, 1, 1, 1, 1]
    assert equalized_odds(preds, z, y) == {0: 1.0, 1: 1.0}


def test_equalized_odds_hand_counted_fixture():
    # y=0: z=0 rate 2/4, z=1 rate 1/4; y=1: z=0 rate 2/2, z=1 rate 1/2.
    preds = [1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0]
    z = [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1]
    y = [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]
    assert equalized_odds(preds, z, y) == pytest.approx({0: 0.5, 1: 0.5})


def test_equalized_odds_skips_undefined_stratum():
    preds = [1, 0, 1, 0]
    z = [0, 0, 0, 1]
    y = [0, 0, 1, 1]
    ratios = equalized_odds(preds, z, y)
    assert 0 not in ratios and 1 in ratios


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
                min_size=8, max_size=60))
def test_equal_opportunity_matches_eo_at_positive_label(rows):
    preds = [p for p, _, _ in rows]
    z = [g for _, g, _ in rows]
    y = [v for _, _, v in rows]
    positives = [g for g, v in zip(z, y) if v == 1]
    eo = equalized_odds(preds, z, y)
    if len(set(z)) < 2:  # disparate impact, and so the report, is undefined
        with pytest.raises(UndefinedGroupError):
            compute_report(preds, y, z)
        return
    report = compute_report(preds, y, z)
    if 1 in eo:
        assert report.equal_opportunity == eo[1]
    else:
        assert len(set(positives)) < 2
        assert report.equal_opportunity is None


def test_accuracy_all_correct():
    assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0


def test_accuracy_empty_errors():
    with pytest.raises(ValueError):
        accuracy([], [])


def test_entropy_balanced_binary():
    assert empirical_entropy([0, 1, 0, 1]) == pytest.approx(math.log(2))


def test_entropy_degenerate():
    assert empirical_entropy([1, 1, 1]) == 0.0


def test_group_confusion_sums_to_global():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 2, 100)
    labels = rng.integers(0, 2, 100)
    z = rng.integers(0, 3, 100)
    per_group = confusion_by_group(preds, labels, z)
    total = sum(per_group.values())
    assert total.sum() == 100
    global_mat = confusion_by_group(preds, labels, np.zeros(100, dtype=int))[0]
    assert np.array_equal(total, global_mat)


def test_report_serializes_flat():
    preds, z = _group_fixture(0.8, 0.4)
    labels = preds  # fully correct
    report = compute_report(preds, labels, z)
    payload = report.to_json_dict()
    assert payload["accuracy"] == 1.0
    assert payload["disparate_impact"] == pytest.approx(0.5)
    assert set(payload) == {
        "accuracy", "disparate_impact", "equalized_odds", "equal_opportunity",
        "group_confusion", "entropy_z",
    }

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
    disparate_impact,
    empirical_entropy,
    group_plan,
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
    if z_cardinality and z.max() >= z_cardinality:
        raise ValueError("group code out of range")
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
    except (UndefinedGroupError, ValueError) as exc:
        return type(exc)


def _masked_di(predictions, z, z_cardinality=None):
    rates = list(_masked_rates(predictions, z, z_cardinality).values())
    if len(rates) < 2:
        raise UndefinedGroupError("fewer than two groups")
    return min(_rate_ratio(a, b) for i, a in enumerate(rates) for b in rates[i + 1:])


def _masked_eo(predictions, z, labels, z_cardinality=None):
    """Reference: per label that occurs, ``_masked_di`` over that label's rows,
    left out where it is undefined."""
    eo = {}
    for y in np.unique(labels):
        try:
            eo[int(y)] = _masked_di(predictions[labels == y], z[labels == y], z_cardinality)
        except UndefinedGroupError:
            pass
    return eo


def _bits(x):
    return np.float64(x).tobytes()


def _assert_report_equals_the_masked_oracles(report, preds, z, labels, card):
    assert _bits(report.disparate_impact) == _bits(_masked_di(preds, z, card))
    want = _masked_eo(preds, z, labels, card)
    assert list(report.equalized_odds) == list(want)
    assert [_bits(v) for v in report.equalized_odds.values()] == [_bits(v) for v in want.values()]


def test_counted_rates_equal_masked_means_bit_for_bit():
    rng = np.random.default_rng(7)
    label_rng = np.random.default_rng(70)  # a stream apart from the group and prediction draws
    undefined = out_of_range = 0
    for _ in range(3000):
        n = int(rng.integers(1, 80))
        present = rng.choice(7, size=int(rng.integers(1, 5)), replace=False)  # codes with gaps
        z = rng.choice(present, size=n)
        preds = (rng.random(n) < rng.random()).astype(np.int64)
        labels = label_rng.integers(0, 2, n)
        for card in (None, int(rng.integers(1, 8))):
            want = _outcome(_masked_di, preds, z, card)
            assert _outcome(disparate_impact, preds, z, card) == want
            report = _outcome(compute_report, preds, labels, z, card)
            if isinstance(want, float):
                _assert_report_equals_the_masked_oracles(report, preds, z, labels, card)
            else:
                assert report == want
            undefined += want is UndefinedGroupError
            out_of_range += want is ValueError
    assert undefined > 100  # the absent-group cases were exercised
    assert out_of_range > 100  # and so were codes at or above the cardinality


def test_plan_rates_equal_the_array_form_bit_for_bit():
    # A plan built once per run gives the bits of the per-call masked means,
    # and ``accuracy`` those of ``(predictions == labels).mean()``.
    rng = np.random.default_rng(8)
    cases = 0
    for groups in (2, 3):
        for kind in ("random", "no positives in group 0", "all positive"):
            for _ in range(200):
                n = int(rng.integers(groups, 300))
                z = np.concatenate([np.arange(groups), rng.integers(0, groups, n - groups)])
                rng.shuffle(z)
                preds = (rng.random(n) < rng.random()).astype(np.int64)
                if kind == "all positive":
                    preds[:] = 1
                elif kind.startswith("no positives"):
                    preds[z == 0] = 0
                labels = rng.integers(0, 2, n)
                for card in (None, groups):
                    plan = group_plan(z, card)
                    got, want = disparate_impact(preds, plan), _masked_di(preds, z, card)
                    assert _bits(got) == _bits(want)
                    assert _bits(disparate_impact(preds, z, card)) == _bits(want)
                    report = compute_report(preds, labels, z, card)
                    _assert_report_equals_the_masked_oracles(report, preds, z, labels, card)
                assert accuracy(preds, labels) == float((preds == labels).mean())
                cases += 1
    assert cases == 1200


def test_plan_checks_group_codes_once_and_keeps_its_cardinality():
    with pytest.raises(ValueError, match="nonnegative"):
        group_plan([0, -1, 1])
    with pytest.raises(ValueError, match=r"group code 2 is outside \[0, 2\)"):
        group_plan([0, 1, 2], 2)
    with pytest.raises(UndefinedGroupError, match="group 1 absent"):
        group_plan([0, 2, 2], 3)
    plan = group_plan([0, 2, 2, 0])
    assert plan.codes == [0, 2] and disparate_impact([1, 1, 0, 0], plan) == 1.0  # 0.5 and 0.5
    assert disparate_impact([1, 1, 1, 0], plan) == 0.5  # 0.5 and 1.0
    with pytest.raises(ValueError, match="carries its own cardinality"):
        disparate_impact([1, 1, 0, 0], plan, 3)
    with pytest.raises(ValueError, match="equal length"):
        disparate_impact([1, 1, 0], plan)
    with pytest.raises(UndefinedGroupError, match="at least two groups"):
        disparate_impact([1, 0], group_plan([1, 1]))


def test_negative_group_code_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        disparate_impact([1, 0, 1], [0, -1, 1])
    with pytest.raises(ValueError, match="nonnegative"):
        disparate_impact([1, 0, 1], [0, -1, 1], z_cardinality=2)
    with pytest.raises(ValueError, match="nonnegative"):
        compute_report([1, 0, 1], [1, 0, 1], [0, -1, 1])


def test_group_code_at_or_above_the_cardinality_is_named():
    # Group 2's rate is 0, so dropping it would report a fair 1.0.
    with pytest.raises(ValueError, match=r"group code 2 is outside \[0, 2\)"):
        disparate_impact([1, 1, 0], [0, 1, 2], 2)
    with pytest.raises(ValueError, match=r"group code 2 is outside \[0, 2\)"):
        compute_report([1, 1, 0, 1], [1, 1, 0, 0], [0, 1, 2, 0], 2)
    assert disparate_impact([1, 1, 0], [0, 1, 2], 3) == 0.0


def test_equalized_odds_equal_conditional_rates():
    preds = [1, 0, 1, 0, 1, 1, 1, 1]
    z = [0, 0, 1, 1, 0, 0, 1, 1]
    y = [0, 0, 0, 0, 1, 1, 1, 1]
    assert compute_report(preds, y, z).equalized_odds == {0: 1.0, 1: 1.0}


def test_equalized_odds_hand_counted_fixture():
    # y=0: z=0 rate 2/4, z=1 rate 1/4; y=1: z=0 rate 2/2, z=1 rate 1/2.
    preds = [1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0]
    z = [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1]
    y = [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]
    assert compute_report(preds, y, z).equalized_odds == pytest.approx({0: 0.5, 1: 0.5})


def test_equalized_odds_skips_undefined_stratum():
    preds = [1, 0, 1, 0]
    z = [0, 0, 0, 1]
    y = [0, 0, 1, 1]
    ratios = compute_report(preds, y, z).equalized_odds
    assert 0 not in ratios and 1 in ratios
    # With the cardinality given, a label missing a reported group is left out too.
    assert compute_report(preds, y, z, 2).equalized_odds == ratios


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
                min_size=8, max_size=60))
def test_equal_opportunity_matches_eo_at_positive_label(rows):
    preds = [p for p, _, _ in rows]
    z = [g for _, g, _ in rows]
    y = [v for _, _, v in rows]
    positives = [i for i, v in enumerate(y) if v == 1]
    if len(set(z)) < 2:  # disparate impact, and so the report, is undefined
        with pytest.raises(UndefinedGroupError):
            compute_report(preds, y, z)
        return
    report = compute_report(preds, y, z)
    assert report.equal_opportunity == report.equalized_odds.get(1)
    if len({z[i] for i in positives}) >= 2:
        assert report.equal_opportunity == disparate_impact(
            [preds[i] for i in positives], [z[i] for i in positives])
    else:
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
    per_group = compute_report(preds, labels, z).group_confusion
    total = sum(per_group.values())
    assert total.sum() == 100
    global_mat = np.bincount(2 * labels + preds, minlength=4).reshape(2, 2)
    assert np.array_equal(total, global_mat)


def _confusion_by_loop(preds, labels, z):
    """Per-group confusion counts, one row at a time."""
    out = {}
    for code in np.unique(z):
        mask = z == code
        mat = np.zeros((2, 2), dtype=np.int64)
        for y, p in zip(labels[mask], preds[mask]):
            mat[y, p] += 1
        out[int(code)] = mat
    return out


@pytest.mark.parametrize("seed", range(5))
def test_group_confusion_equals_the_row_by_row_count(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    preds, labels = rng.integers(0, 2, n), rng.integers(0, 2, n)
    z = rng.choice([0, 2, 3, 7], n)  # codes with gaps; some may not occur
    got = compute_report(preds, labels, z).group_confusion
    want = _confusion_by_loop(preds, labels, z)
    assert list(got) == list(want)
    for code, mat in want.items():
        assert got[code].dtype == mat.dtype and np.array_equal(got[code], mat)


@pytest.mark.parametrize("preds, labels, z, message", [
    ([-1, 0, 1], [0, 0, 1], [0, 0, 0], "predictions must be 0 or 1"),
    ([0, 2, 1], [0, 0, 1], [0, 0, 0], "predictions must be 0 or 1"),
    ([0, 0, 1], [0, 1, 2], [0, 0, 0], "labels must be 0 or 1"),
    ([0, 0, 1], [0, 1, 1], [0, -1, 0], "group codes must be nonnegative"),
], ids=["negative_prediction", "prediction_2", "label_2", "negative_group"])
def test_group_confusion_rejects_codes_outside_its_table(preds, labels, z, message):
    with pytest.raises(ValueError, match=message):
        compute_report(preds, labels, z)


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

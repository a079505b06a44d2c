import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from fairrobust.dataset import (
    CrowdResponse,
    DataError,
    Dataset,
    SyntheticSpec,
    aggregate_crowd_labels,
    filter_workers,
    generate_synthetic,
    load_csv,
    save_csv,
    sensitive_probability,
    split,
)


def test_label1_feature_mean_near_reference():
    ds = generate_synthetic(SyntheticSpec(n=2000), seed=7)
    mean_pos = ds.features[ds.labels == 1].mean(axis=0)
    assert np.abs(mean_pos - np.array([2.0, 2.0])).max() < 0.2


def test_empty_generation():
    ds = generate_synthetic(SyntheticSpec(n=0), seed=0)
    assert len(ds) == 0


def test_generation_deterministic():
    a = generate_synthetic(SyntheticSpec(n=500), seed=3)
    b = generate_synthetic(SyntheticSpec(n=500), seed=3)
    assert a == b


def test_label_frequency_near_prior():
    ds = generate_synthetic(SyntheticSpec(n=2000), seed=11)
    assert abs(ds.labels.mean() - 0.5) < 0.03


def test_class_covariances_near_spec():
    spec = SyntheticSpec(n=2000)
    ds = generate_synthetic(spec, seed=5)
    for label, cov in ((0, spec.cov_neg), (1, spec.cov_pos)):
        sample = np.cov(ds.features[ds.labels == label].T)
        assert np.linalg.norm(sample - np.asarray(cov)) < 1.0


def test_sensitive_probability_matches_independent_density_oracle():
    # Oracle: scipy multivariate normal densities at the rotated point.
    spec = SyntheticSpec(n=0)
    rng = np.random.default_rng(0)
    points = rng.normal(size=(50, 2)) * 3
    theta = spec.rotation_angle
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    rotated = points @ rot.T
    f_pos = multivariate_normal(spec.mean_pos, spec.cov_pos).pdf(rotated)
    f_neg = multivariate_normal(spec.mean_neg, spec.cov_neg).pdf(rotated)
    expected = f_pos / (f_pos + f_neg)
    assert np.allclose(sensitive_probability(spec, points), expected, atol=1e-12)


def test_sensitive_draws_near_half_at_equal_density_points():
    # Monte-Carlo: z frequency among points whose rotated density ratio is ~1.
    spec = SyntheticSpec(n=40000)
    ds = generate_synthetic(spec, seed=19)
    p = sensitive_probability(spec, ds.features)
    band = np.abs(p - 0.5) < 0.02
    assert band.sum() > 300
    assert abs(ds.sensitive[band].mean() - 0.5) < 0.05


def test_non_spd_covariance_rejected():
    with pytest.raises(DataError):
        SyntheticSpec(n=10, cov_neg=((1.0, 2.0), (2.0, 1.0)))


def test_split_sizes_and_remainder():
    ds = generate_synthetic(SyntheticSpec(n=2000), seed=1)
    train, val, test = split(ds, (0.8, 0.1, 0.1), seed=2)
    assert (len(train), len(val), len(test)) == (1600, 200, 200)


def test_split_all_train():
    ds = generate_synthetic(SyntheticSpec(n=100), seed=1)
    train, val, test = split(ds, (1.0, 0.0, 0.0), seed=2)
    assert (len(train), len(val), len(test)) == (100, 0, 0)


def test_split_union_recovers_input():
    ds = generate_synthetic(SyntheticSpec(n=521), seed=4)
    parts = split(ds, (0.6, 0.25, 0.15), seed=9)
    def rows_of(d):
        return set(map(tuple, np.column_stack([d.features, d.sensitive, d.labels])))

    rows = set().union(*(rows_of(part) for part in parts))
    original = rows_of(ds)
    assert rows == original
    assert sum(len(p) for p in parts) == len(ds)


def test_split_deterministic():
    ds = generate_synthetic(SyntheticSpec(n=400), seed=4)
    a = split(ds, (0.5, 0.3, 0.2), seed=13)
    b = split(ds, (0.5, 0.3, 0.2), seed=13)
    assert all(x == y for x, y in zip(a, b))


def test_csv_round_trip_small(tmp_path):
    path = tmp_path / "d.csv"
    ds = Dataset([[1.0, 2.0], [3.5, -1.25], [0.0, 0.125]], [0, 1, 0], [1, 0, 1])
    save_csv(ds, path)
    back = load_csv(path)
    assert back == ds


def test_csv_round_trip_synthetic(tmp_path):
    path = tmp_path / "synth.csv"
    ds = generate_synthetic(SyntheticSpec(n=2000), seed=21)
    save_csv(ds, path)
    assert load_csv(path) == ds


def test_csv_bad_label_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,z,y\n0.1,0,1\n0.2,1,2\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path)


def test_csv_non_numeric_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,z,y\n0.1,0,1\noops,1,0\n")
    with pytest.raises(DataError, match="row 2.*x0"):
        load_csv(path)


@pytest.mark.parametrize("body,column", [
    ("nan,0,1,1.0", "x0"),
    ("0.1,0,1,inf", "w"),
    ("-inf,1,0,1.0", "x0"),
])
def test_csv_non_finite_cell_names_row_and_column(tmp_path, body, column):
    path = tmp_path / "bad.csv"
    path.write_text(f"x0,z,y,w\n0.1,0,1,1.0\n{body}\n")
    with pytest.raises(DataError, match=f"row 2.*{column}"):
        load_csv(path)


def test_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,y\n0.1,1\n")
    with pytest.raises(DataError, match="'z'"):
        load_csv(path)


def test_aggregate_crowd_mean_above_threshold():
    responses = [CrowdResponse(1, w, r) for w, r in enumerate([3, 4, 4])]
    assert aggregate_crowd_labels(responses, n_max=11, threshold=2.5) == {1: 1}


def test_aggregate_crowd_single_low_rating():
    assert aggregate_crowd_labels([CrowdResponse(7, 0, 1)], n_max=5) == {7: 0}


def test_aggregate_crowd_truncates_in_order():
    responses = [CrowdResponse(2, w, r) for w, r in enumerate([4, 1, 1])]
    # First two only: mean 2.5 meets the threshold.
    assert aggregate_crowd_labels(responses, n_max=2, threshold=2.5) == {2: 1}


def test_aggregate_crowd_omits_unanswered_questions():
    assert aggregate_crowd_labels([CrowdResponse(3, 0, 4)], n_max=1) == {3: 1}


@settings(max_examples=50, deadline=None)
@given(
    ratings=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8),
    bump=st.integers(min_value=0, max_value=7),
    n_max=st.integers(min_value=1, max_value=8),
)
def test_aggregate_crowd_monotone(ratings, bump, n_max):
    # Raising any rating never flips a label from 1 to 0.
    idx = bump % len(ratings)
    raised = list(ratings)
    raised[idx] = min(4, raised[idx] + 1)
    low = aggregate_crowd_labels(
        [CrowdResponse(0, w, r) for w, r in enumerate(ratings)], n_max
    )
    high = aggregate_crowd_labels(
        [CrowdResponse(0, w, r) for w, r in enumerate(raised)], n_max
    )
    assert high[0] >= low[0]


def test_filter_workers_perfect_worker_retained():
    gold = {1: 1, 2: 0}
    responses = [CrowdResponse(1, 0, 4), CrowdResponse(2, 0, 1)]
    assert filter_workers(responses, gold, 0.9) == responses


def test_filter_workers_drops_failing_worker():
    gold = {q: 1 for q in range(5)}
    responses = [CrowdResponse(q, 3, 1) for q in range(5)]  # 0/5 correct
    responses.append(CrowdResponse(9, 3, 4))
    assert filter_workers(responses, gold, 0.5) == []


def test_filter_workers_mixed_pool_hand_computed():
    gold = {1: 1, 2: 0}
    # worker 0: 2/2, worker 1: 1/2, worker 2: no gold answers.
    responses = [
        CrowdResponse(1, 0, 4),
        CrowdResponse(2, 0, 2),
        CrowdResponse(1, 1, 4),
        CrowdResponse(2, 1, 4),
        CrowdResponse(5, 2, 3),
        CrowdResponse(5, 1, 2),
    ]
    kept = filter_workers(responses, gold, min_accuracy=0.75)
    assert {r.worker_id for r in kept} == {0, 2}
    assert kept == [responses[0], responses[1], responses[4]]


def test_crowd_response_rating_range():
    with pytest.raises(DataError):
        CrowdResponse(1, 1, 5)


def test_dataset_invariants():
    with pytest.raises(DataError):
        Dataset([[1.0]], [2], [0], z_cardinality=2)  # z out of range
    with pytest.raises(DataError):
        Dataset([[1.0]], [0], [2])  # non-binary label
    with pytest.raises(DataError):
        Dataset([[1.0]], [0], [1], weights=[-0.5])  # negative weight

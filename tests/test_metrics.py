"""Evaluation metrics against hand values and literal loop oracles."""

import math
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_coverage,
    brute_mae,
    brute_mape,
    brute_mse,
    brute_nd,
    brute_provisioning,
    brute_quantile_loss,
)
from prb_oracle.metrics import (
    MetricError,
    coverage,
    crps,
    normalized_deviation,
    point_errors,
    provisioning,
    quantile_loss,
)


def test_point_errors_identity():
    assert point_errors([3.0, 4.0], [3.0, 4.0]) == (0.0, 0.0, 0.0)


def test_point_errors_hand_oracle():
    assert point_errors([10.0, 10.0], [9.0, 11.0]) == pytest.approx((1.0, 1.0, 10.0))


def test_point_errors_zero_truth_names_index():
    with pytest.raises(MetricError, match=r"truth\[1\]"):
        point_errors([5.0, 0.0], [5.0, 1.0])


def test_mae_bounded_by_rms():
    rng = np.random.default_rng(0)
    for _ in range(50):
        truth = rng.uniform(1.0, 50.0, size=rng.integers(2, 40))
        pred = truth + rng.normal(size=truth.size)
        mse, mae, _ = point_errors(truth, pred)
        assert mae <= np.sqrt(mse) + 1e-12


def test_nd_hand_values():
    assert normalized_deviation([10.0, 10.0], [10.0, 10.0]) == 0.0
    assert normalized_deviation([10.0, 10.0], [0.0, 0.0]) == 1.0
    assert normalized_deviation([10.0, 10.0], [9.0, 11.0]) == pytest.approx(0.1)


def test_nd_rejects_zero_truth():
    with pytest.raises(MetricError, match="all-zero"):
        normalized_deviation([0.0, 0.0], [1.0, 1.0])


def test_quantile_loss_hand_values():
    assert quantile_loss([10.0], [10.0], 0.5) == 0.0
    assert quantile_loss([10.0], [8.0], 0.9) == pytest.approx(3.6)
    with pytest.raises(MetricError):
        quantile_loss([1.0], [1.0], 1.0)


def test_quantile_loss_at_median_equals_mae_exactly():
    rng = np.random.default_rng(1)
    for _ in range(50):
        truth = rng.uniform(1.0, 100.0, size=rng.integers(1, 60))
        pred = truth + rng.normal(scale=5.0, size=truth.size)
        _, mae, _ = point_errors(truth, pred)
        assert quantile_loss(truth, pred, 0.5) == mae


def test_coverage_conventions():
    assert coverage([5.0, 5.0], [5.0, 5.0]) == 1.0  # boundary covered
    assert coverage([5.0, 5.0], [4.0, 4.9]) == 0.0
    assert coverage([1.0, 2.0, 3.0, 4.0], [1.5, 1.5, 3.0, 3.0]) == 0.5


def test_coverage_calibration_monte_carlo():
    # Truth and quantile forecasts drawn from the same law: empirical coverage
    # of the q-quantile approaches q.
    rng = np.random.default_rng(123)
    n = 10_000
    truth = rng.normal(size=n)
    for q in (0.1, 0.5, 0.9):
        qpred = np.full(n, np.quantile(rng.normal(size=200_000), q))
        assert abs(coverage(truth, qpred) - q) < 0.05


def test_provisioning_tie_counts_as_over():
    assert provisioning([5.0, 5.0], [5, 4]) == (50.0, 50.0)
    assert provisioning([5.0, 5.0], [160, 160]) == (100.0, 0.0)


def test_provisioning_always_sums_to_100():
    rng = np.random.default_rng(2)
    for _ in range(100):
        truth = rng.uniform(0.0, 160.0, size=rng.integers(1, 50))
        alloc = rng.integers(0, 161, size=truth.size)
        over, under = provisioning(truth, alloc)
        assert over + under == 100.0


def test_provisioning_monotone_in_allocation_quantile():
    rng = np.random.default_rng(3)
    truth = rng.uniform(10.0, 100.0, size=48)
    samples = truth[None, :] + rng.normal(scale=8.0, size=(100, 48))
    overs = []
    for q in (0.05, 0.25, 0.5, 0.75, 0.9, 0.99):
        alloc = np.ceil(np.quantile(samples, q, axis=0))
        overs.append(provisioning(truth, alloc)[0])
    assert overs == sorted(overs)


def test_length_mismatch_rejected():
    for fn in (normalized_deviation, coverage):
        with pytest.raises(MetricError):
            fn([1.0, 2.0], [1.0])


def test_brute_force_equivalence_on_randomized_vectors():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 80))
        truth = rng.uniform(0.5, 120.0, size=n)
        pred = truth + rng.normal(scale=7.0, size=n)
        alloc = rng.integers(0, 161, size=n).astype(float)
        q = float(rng.uniform(0.01, 0.99))

        mse, mae, mape = point_errors(truth, pred)
        assert mse == brute_mse(truth, pred)
        assert mae == brute_mae(truth, pred)
        assert mape == brute_mape(truth, pred)
        assert normalized_deviation(truth, pred) == brute_nd(truth, pred)
        assert quantile_loss(truth, pred, q) == brute_quantile_loss(truth, pred, q)
        assert coverage(truth, pred) == brute_coverage(truth, pred)
        assert provisioning(truth, alloc) == brute_provisioning(truth, alloc)


# Values of at least 1e-3 keep every difference a normal float, so halving
# and doubling in the pinball loss are exact.
_load = st.floats(1e-3, 1e3)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), truth=st.lists(_load, min_size=1, max_size=40))
def test_metric_properties(data, truth):
    n = len(truth)
    pred = data.draw(st.lists(_load, min_size=n, max_size=n))
    alloc = data.draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n))
    over, under = provisioning(truth, alloc)
    assert over + under == 100.0
    assert quantile_loss(truth, pred, 0.5) == point_errors(truth, pred)[1]


# ---------------------------------------------------------------------------
# CRPS
# ---------------------------------------------------------------------------

def brute_crps(samples, truth):
    """Per hour, (1/S) sum_i |x_i - y| - (1/2S^2) sum_i sum_j |x_i - x_j|, then the mean."""
    scores = []
    for xs, y in zip(np.asarray(samples).T, truth):
        s = len(xs)
        skill = fsum(abs(x - y) for x in xs) / s
        spread = fsum(abs(a - b) for a in xs for b in xs) / (2 * s * s)
        scores.append(skill - spread)
    return fsum(scores) / len(scores)


@pytest.mark.parametrize("draws", [1, 2, 7, 100])
def test_crps_is_the_energy_form_double_sum(draws):
    rng = np.random.default_rng(draws)
    samples = rng.gamma(3.0, 10.0, size=(draws, 24))
    truth = rng.uniform(5.0, 80.0, size=24)
    assert crps(samples, truth) == pytest.approx(brute_crps(samples, truth), rel=1e-12, abs=1e-12)


def test_crps_of_gaussian_draws_is_the_closed_form():
    # CRPS(N(mu, sigma^2), y) = sigma [z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi)],
    # z = (y - mu) / sigma (Gneiting & Raftery 2007).
    mu, sigma = 50.0, 8.0
    truth = np.array([38.0, 47.5, 50.0, 61.0])
    samples = np.random.default_rng(5).normal(mu, sigma, size=(40_000, len(truth)))

    def closed(y):
        z = (y - mu) / sigma
        cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return sigma * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / math.sqrt(math.pi))

    want = fsum(closed(y) for y in truth) / len(truth)
    assert crps(samples, truth) == pytest.approx(want, rel=5e-3)


def test_crps_of_one_draw_is_the_absolute_error():
    rng = np.random.default_rng(2)
    truth = rng.uniform(1.0, 100.0, size=30)
    point = truth + rng.normal(scale=5.0, size=30)
    assert crps(point[None, :], truth) == point_errors(truth, point)[1]


def test_crps_rejects_mismatched_shapes():
    with pytest.raises(MetricError, match="crps"):
        crps(np.ones((5, 3)), np.ones(4))
    with pytest.raises(MetricError, match="crps"):
        crps(np.ones(3), np.ones(3))

"""Decision engine: quantile -> ceil -> clamp allocation plans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prb_oracle.decision import AllocationPolicy, DecisionError, allocate
from prb_oracle.forecasters import ForecastResult


def _result(columns) -> ForecastResult:
    return ForecastResult(samples=np.array(columns, dtype=float), origin=0)


def test_policy_validation():
    with pytest.raises(DecisionError):
        AllocationPolicy(0.0)
    with pytest.raises(DecisionError):
        AllocationPolicy(1.0)


def test_ceil_and_clamp():
    # Constant sample columns make every quantile equal the column value.
    result = _result([[170.3, -2.0, 19.2], [170.3, -2.0, 19.2]])
    plan = allocate(result, AllocationPolicy(0.5), max_prb=160)
    assert plan.prbs.tolist() == [160, 0, 20]
    assert plan.prbs.dtype == np.int64


def test_exact_integer_quantile_not_inflated():
    plan = allocate(_result([[20.0], [20.0]]), AllocationPolicy(0.5), max_prb=160)
    assert plan.prbs.tolist() == [20]


def test_monotone_in_percentile():
    rng = np.random.default_rng(4)
    result = ForecastResult(samples=rng.normal(60, 25, size=(100, 24)), origin=0)
    plans = [allocate(result, AllocationPolicy(q), 160).prbs
             for q in (0.05, 0.25, 0.5, 0.75, 0.9, 0.99)]
    for lo, hi in zip(plans[:-1], plans[1:]):
        assert np.all(lo <= hi)


def test_idempotent():
    rng = np.random.default_rng(5)
    result = ForecastResult(samples=rng.normal(60, 10, size=(50, 12)), origin=3)
    a = allocate(result, AllocationPolicy(0.9), 160, model_kind="sff")
    b = allocate(result, AllocationPolicy(0.9), 160, model_kind="sff")
    assert np.array_equal(a.prbs, b.prbs)
    assert a.model_kind == "sff"
    assert a.policy.percentile == 0.9


def test_plan_within_physical_range():
    rng = np.random.default_rng(6)
    result = ForecastResult(samples=rng.normal(100, 300, size=(200, 24)), origin=0)
    for q in (0.01, 0.5, 0.99):
        plan = allocate(result, AllocationPolicy(q), 160)
        assert plan.prbs.min() >= 0
        assert plan.prbs.max() <= 160


@settings(max_examples=200, deadline=None)
@given(
    samples=arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 12)),
                   elements=st.floats(-500.0, 500.0)),
    max_prb=st.integers(1, 400),
    levels=st.lists(st.floats(0.001, 0.999), min_size=2, max_size=2, unique=True).map(sorted),
)
def test_allocation_properties(samples, max_prb, levels):
    result = ForecastResult(samples=samples, origin=0)
    low, high = (allocate(result, AllocationPolicy(p), max_prb).prbs for p in levels)
    for prbs in (low, high):
        assert prbs.dtype == np.int64
        assert prbs.min() >= 0 and prbs.max() <= max_prb
    assert np.all(low <= high)
    q = np.quantile(samples, levels[1], axis=0)
    within = q <= max_prb
    assert np.all(high[within] >= q[within])

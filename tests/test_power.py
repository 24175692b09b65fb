"""Base-station power model: exactness, linearity, saving invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prb_oracle.power import PowerError, PowerParams, load_ratio, p_out, power_saving, total_power

P = PowerParams()  # fitted benchmark constants


def test_load_ratio():
    assert load_ratio(160, P) == 1.0
    assert load_ratio(0, P) == 0.0
    assert load_ratio(80, P) == 0.5
    with pytest.raises(PowerError):
        load_ratio(161, P)
    with pytest.raises(PowerError):
        load_ratio(-1, P)


def test_p_out_full_load_value():
    # 1 - (0.22 + 0.16 + 0.09408 + 0.24382) = 0.2821, exact in float64.
    assert p_out(1.0, P) == 0.2821
    assert p_out(0.0, P) == 0.0


def test_p_out_linear():
    assert p_out(0.5, P) == p_out(1.0, P) / 2.0
    ratios = np.linspace(0.0, 1.0, 11)
    assert np.allclose(p_out(ratios, P), 0.2821 * ratios, atol=0, rtol=0)


def test_total_power_exact_endpoints():
    assert total_power(1.0, P) == 1.0
    assert total_power(0.0, P) == 0.7179


def test_total_power_monotone():
    ratios = np.linspace(0.0, 1.0, 101)
    values = total_power(ratios, P)
    assert np.all(np.diff(values) >= 0.0)


def test_power_saving_endpoints():
    per_hour, mean = power_saving(np.full(24, 160), P)
    assert np.all(per_hour == 0.0) and mean == 0.0
    per_hour, mean = power_saving(np.zeros(24), P)
    assert np.all(per_hour == 100.0) and mean == 100.0


def test_power_saving_half_load():
    _, mean = power_saving(np.full(24, 80), P)
    assert mean == 50.0


def test_power_saving_invariant_to_dynamic_budget():
    # Different static split => different p_out_full; savings cancel it.
    perturbed = PowerParams(p0=0.30, p_bb=0.10, p_tran=0.05, p_pa=0.20)
    assert perturbed.p_out_full != P.p_out_full
    alloc = np.array([0, 20, 80, 120, 160])
    base_hours, base_mean = power_saving(alloc, P)
    pert_hours, pert_mean = power_saving(alloc, perturbed)
    assert np.allclose(base_hours, pert_hours, atol=1e-12)
    assert base_mean == pytest.approx(pert_mean, abs=1e-12)


def test_power_saving_strictly_decreasing_in_allocation():
    for h in range(5):
        alloc = np.array([10.0, 50.0, 90.0, 130.0, 150.0])
        bumped = alloc.copy()
        bumped[h] += 1.0
        assert power_saving(bumped, P)[1] < power_saving(alloc, P)[1]


def test_power_saving_pointwise_dominance():
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 160, size=24)
    b = np.minimum(a + rng.uniform(0, 20, size=24), 160.0)
    saving_a = power_saving(a, P)[1]
    saving_b = power_saving(b, P)[1]
    assert saving_a >= saving_b


def test_params_validation():
    with pytest.raises(PowerError):
        PowerParams(p0=0.5, p_bb=0.3, p_tran=0.2, p_pa=0.1)
    with pytest.raises(PowerError):
        PowerParams(max_prb=0)


@st.composite
def static_splits(draw):
    """Four static terms that sum to less than 1 (the unit full-load total)."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    total = draw(st.floats(0.0, 0.999))
    norm = sum(weights) or 1.0
    return [total * (w / norm) for w in weights]  # w*total first underflows for subnormal w


@settings(max_examples=200, deadline=None)
@given(static=static_splits(), data=st.data())
def test_power_saving_is_the_unused_capacity_share(static, data):
    # Every static term cancels: the saving depends on alloc/capacity alone.
    capacity = data.draw(st.integers(1, 10_000), label="capacity")
    alloc = np.array(data.draw(
        st.lists(st.floats(0.0, float(capacity)), min_size=1, max_size=48), label="alloc"))
    params = PowerParams(*static, max_prb=capacity)
    per_hour, _ = power_saving(alloc, params)
    assert np.allclose(per_hour, 100.0 * (1.0 - alloc / capacity), rtol=0.0, atol=1e-12)

"""Trace generation, CSV ingestion, splitting, and windowing."""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prb_oracle.traces import (
    PrbSeries,
    TraceConfig,
    TraceError,
    generate_synthetic,
    load_csv,
    make_windows,
    save_csv,
    split,
)


def test_ten_weeks_is_1680_hours():
    series = generate_synthetic(TraceConfig(weeks=10))
    assert len(series) == 1680


def test_degenerate_generator_is_constant():
    cfg = TraceConfig(weeks=1, base_load=20.0, daily_amplitude=0.0, noise_std=0.0)
    series = generate_synthetic(cfg)
    assert np.all(series.values == 20.0)


def test_generator_deterministic():
    cfg = TraceConfig(weeks=2, seed=7)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.values, b.values)
    assert a.start_time == b.start_time


def test_generator_respects_floor_and_capacity():
    cfg = TraceConfig(weeks=4, base_load=150.0, daily_amplitude=10.0,
                      noise_std=40.0, floor=2.0, seed=1)
    series = generate_synthetic(cfg, max_prb=160)
    assert series.values.min() >= 2.0
    assert series.values.max() <= 160.0


def test_generator_rejects_overfull_config():
    with pytest.raises(TraceError, match="exceeds max_prb"):
        generate_synthetic(TraceConfig(base_load=140.0, daily_amplitude=30.0), max_prb=160)


def test_weekend_attenuation():
    cfg = TraceConfig(weeks=1, base_load=60.0, daily_amplitude=40.0,
                      weekly_factor=0.5, noise_std=0.0)
    series = generate_synthetic(cfg)
    # Start is a Monday: noon of day 0 is a weekday peak, noon of day 5 is Saturday.
    assert series.values[12] == pytest.approx(100.0)
    assert series.values[5 * 24 + 12] == pytest.approx(80.0)


def test_series_invariants_enforced():
    with pytest.raises(TraceError):
        PrbSeries(generate_synthetic(TraceConfig(weeks=1)).start_time, np.array([1.0, 200.0]), 160)
    with pytest.raises(TraceError):
        PrbSeries(generate_synthetic(TraceConfig(weeks=1)).start_time, np.array([-1.0]), 160)
    with pytest.raises(TraceError):
        PrbSeries(generate_synthetic(TraceConfig(weeks=1)).start_time, np.array([]), 160)


def test_csv_round_trip(tmp_path):
    series = generate_synthetic(TraceConfig(weeks=1, seed=3))
    path = tmp_path / "trace.csv"
    save_csv(series, path)
    loaded = load_csv(path)
    assert loaded.start_time == series.start_time
    assert loaded.max_prb == series.max_prb
    assert np.array_equal(loaded.values, series.values)


def test_csv_three_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "timestamp,prb_used\n"
        "2024-01-01T00:00:00,10.5\n"
        "2024-01-01T01:00:00,11.0\n"
        "2024-01-01T02:00:00,9.25\n"
    )
    series = load_csv(path)
    assert len(series) == 3
    assert series.values[2] == 9.25


def test_csv_capacity_violation_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "timestamp,prb_used\n"
        "2024-01-01T00:00:00,10\n"
        "2024-01-01T01:00:00,161\n"
    )
    with pytest.raises(TraceError, match=r":3: value 161"):
        load_csv(path, max_prb=160)


def test_csv_bad_timestamp_and_gap_diagnostics(tmp_path):
    bad_ts = tmp_path / "bad_ts.csv"
    bad_ts.write_text("timestamp,prb_used\nnot-a-time,10\n")
    with pytest.raises(TraceError, match=r"bad_ts.csv:2: bad timestamp"):
        load_csv(bad_ts)

    gap = tmp_path / "gap.csv"
    gap.write_text(
        "timestamp,prb_used\n"
        "2024-01-01T00:00:00,10\n"
        "2024-01-01T03:00:00,11\n"
    )
    with pytest.raises(TraceError, match=r"gap.csv:3: .*not one hour"):
        load_csv(gap)

    bad_val = tmp_path / "bad_val.csv"
    bad_val.write_text("timestamp,prb_used\n2024-01-01T00:00:00,many\n")
    with pytest.raises(TraceError, match=r"bad_val.csv:2: bad PRB value"):
        load_csv(bad_val)


def test_csv_requires_header(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("time,prbs\n2024-01-01T00:00:00,10\n")
    with pytest.raises(TraceError, match="expected header"):
        load_csv(path)


def test_split_80_20():
    series = generate_synthetic(TraceConfig(weeks=10))
    train, test = split(series, 0.8)
    assert (len(train), len(test)) == (1344, 336)


def test_split_even():
    series = PrbSeries(generate_synthetic(TraceConfig(weeks=1)).start_time,
                       np.arange(10, dtype=float), 160)
    train, test = split(series, 0.5)
    assert (len(train), len(test)) == (5, 5)


def test_split_partition_identity():
    series = generate_synthetic(TraceConfig(weeks=2, seed=5))
    train, test = split(series, 0.8)
    assert np.array_equal(np.concatenate([train.values, test.values]), series.values)
    assert test.start_time == series.timestamp(len(train))


def test_split_rejects_bad_fraction():
    series = generate_synthetic(TraceConfig(weeks=1))
    for frac in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(TraceError):
            split(series, frac)


def test_window_counts():
    series = generate_synthetic(TraceConfig(weeks=1))
    for n, count in ((48, 1), (72, 25), (168, 168 - 48 + 1)):
        t0s = make_windows(PrbSeries(series.start_time, series.values[:n], 160), 24, 24)
        assert len(t0s) == count
        assert list(t0s) == list(range(24, n - 24 + 1))


def test_window_too_short():
    series = PrbSeries(generate_synthetic(TraceConfig(weeks=1)).start_time,
                       np.ones(30), 160)
    with pytest.raises(TraceError, match="too short"):
        make_windows(series, 24, 24)


def _zeros(n: int) -> PrbSeries:
    return PrbSeries(datetime(2024, 1, 1), np.zeros(n), 160)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 2000), fraction=st.floats(0.001, 0.999))
def test_split_lengths_sum_to_series_length(n, fraction):
    n_train = int(np.floor(n * fraction))
    assume(1 <= n_train < n)
    train, test = split(_zeros(n), fraction)
    assert (len(train), len(test)) == (n_train, n - n_train)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 400), context=st.integers(1, 60), horizon=st.integers(1, 60))
def test_window_count_formula(n, context, horizon):
    assume(context + horizon <= n)
    assert list(make_windows(_zeros(n), context, horizon)) == list(range(context, n - horizon + 1))

"""Hourly PRB-load time series: synthetic generation, CSV ingestion, splitting, windowing."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

HOURS_PER_WEEK = 168
DEFAULT_MAX_PRB = 160

# Synthetic traces start on a Monday at midnight so weekday/weekend
# structure is aligned with the calendar covariates downstream.
SYNTHETIC_START = datetime(2024, 1, 1, 0, 0)

CSV_HEADER = ["timestamp", "prb_used"]


class TraceError(ValueError):
    """Invalid trace data or configuration."""


@dataclass(frozen=True)
class PrbSeries:
    """Hourly PRB-load series with the capacity it was measured against.

    values[i] is the PRB demand for the hour starting at
    start_time + i hours; every value lies in [0, max_prb].
    """

    start_time: datetime
    values: np.ndarray
    max_prb: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if self.max_prb <= 0:
            raise TraceError(f"max_prb must be positive, got {self.max_prb}")
        if vals.ndim != 1 or vals.size < 1:
            raise TraceError("series needs at least one value")
        if not np.all(np.isfinite(vals)):
            raise TraceError("series contains non-finite values")
        if vals.min() < 0 or vals.max() > self.max_prb:
            bad = int(np.argmax((vals < 0) | (vals > self.max_prb)))
            raise TraceError(
                f"value {vals[bad]} at index {bad} outside [0, {self.max_prb}]"
            )
        vals.flags.writeable = False

    def __len__(self) -> int:
        return self.values.size

    def timestamp(self, index: int) -> datetime:
        return self.start_time + timedelta(hours=int(index))


@dataclass(frozen=True)
class TraceConfig:
    """Shape of a synthetic trace: diurnal sinusoid, weekend attenuation, noise."""

    weeks: int = 10
    base_load: float = 60.0
    daily_amplitude: float = 40.0
    weekly_factor: float = 0.7
    noise_std: float = 6.0
    floor: float = 1.0
    seed: int = 42

    def __post_init__(self):
        for name in ("base_load", "daily_amplitude", "noise_std", "floor"):
            if not np.isfinite(getattr(self, name)):
                raise TraceError(f"trace.{name} must be finite, got {getattr(self, name)}")
        if self.weeks < 1:
            raise TraceError(f"trace.weeks must be >= 1, got {self.weeks}")
        if not 0.0 <= self.weekly_factor <= 1.0:
            raise TraceError(f"trace.weekly_factor must be in [0,1], got {self.weekly_factor}")
        if self.floor <= 0.0:
            raise TraceError(f"trace.floor must be > 0, got {self.floor}")
        if self.noise_std < 0.0:
            raise TraceError(f"trace.noise_std must be >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise TraceError(f"trace.seed must be >= 0, got {self.seed}")


def check_capacity(config: TraceConfig, max_prb: int) -> None:
    """The mean daily peak, base_load + daily_amplitude, must fit in max_prb, and
    the floor must lie below it: a clip to [floor, max_prb] with floor >= max_prb
    makes every hour max_prb."""
    peak = config.base_load + config.daily_amplitude
    if peak > max_prb:
        raise TraceError(f"trace.base_load + trace.daily_amplitude = {peak} exceeds max_prb {max_prb}")
    if config.floor >= max_prb:
        raise TraceError(f"trace.floor must be below max_prb {max_prb}, got {config.floor}")


def generate_synthetic(config: TraceConfig, max_prb: int = DEFAULT_MAX_PRB) -> PrbSeries:
    """Generate weeks*168 hourly PRB values, deterministic per seed.

    value(t) = clamp(base + amplitude * sin(2*pi*hour/24 - pi/2) * w(day)
               + N(0, noise_std), floor, max_prb),
    where w(day) attenuates the diurnal swing on Saturdays and Sundays.
    """
    check_capacity(config, max_prb)
    n = config.weeks * HOURS_PER_WEEK
    hours = np.arange(n, dtype=np.float64)
    day_of_week = (hours // 24).astype(int) % 7  # 0 = Monday, start is a Monday
    weekend = day_of_week >= 5
    amp_factor = np.where(weekend, config.weekly_factor, 1.0)
    diurnal = np.sin(2.0 * np.pi * hours / 24.0 - np.pi / 2.0)
    rng = np.random.default_rng(config.seed)
    noise = rng.normal(0.0, config.noise_std, size=n)
    raw = config.base_load + config.daily_amplitude * diurnal * amp_factor + noise
    values = np.clip(raw, config.floor, float(max_prb))
    return PrbSeries(start_time=SYNTHETIC_START, values=values, max_prb=max_prb)


def save_csv(series: PrbSeries, path: str | Path) -> None:
    """Write a trace as `timestamp,prb_used` rows with ISO-8601 hourly timestamps."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i, v in enumerate(series.values):
            writer.writerow([series.timestamp(i).isoformat(), repr(float(v))])


def load_csv(path: str | Path, max_prb: int = DEFAULT_MAX_PRB) -> PrbSeries:
    """Parse a trace CSV, diagnosing the offending line on any malformed row."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    times: list[datetime] = []
    values: list[float] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise TraceError(f"{path}:1: expected header 'timestamp,prb_used', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise TraceError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            try:
                ts = datetime.fromisoformat(row[0].strip())
            except ValueError:
                raise TraceError(f"{path}:{lineno}: bad timestamp {row[0]!r}") from None
            try:
                val = float(row[1])
            except ValueError:
                raise TraceError(f"{path}:{lineno}: bad PRB value {row[1]!r}") from None
            if times and ts != times[-1] + timedelta(hours=1):
                raise TraceError(
                    f"{path}:{lineno}: timestamp {ts.isoformat()} is not one hour "
                    f"after {times[-1].isoformat()}"
                )
            if not 0.0 <= val <= max_prb:
                raise TraceError(
                    f"{path}:{lineno}: value {val} outside [0, {max_prb}]"
                )
            times.append(ts)
            values.append(val)
    if not values:
        raise TraceError(f"{path}: no data rows")
    return PrbSeries(start_time=times[0], values=np.array(values), max_prb=max_prb)


def split(series: PrbSeries, train_fraction: float = 0.8) -> tuple[PrbSeries, PrbSeries]:
    """Chronological split; train gets floor(N * train_fraction) hours."""
    if not 0.0 < train_fraction < 1.0:
        raise TraceError(f"train_fraction must be in (0,1), got {train_fraction}")
    n = len(series)
    n_train = int(np.floor(n * train_fraction))
    if n_train < 1 or n_train >= n:
        raise TraceError(
            f"split of {n} points at fraction {train_fraction} leaves an empty side"
        )
    train = PrbSeries(series.start_time, series.values[:n_train].copy(), series.max_prb)
    test = PrbSeries(series.timestamp(n_train), series.values[n_train:].copy(), series.max_prb)
    return train, test


def make_windows(series: PrbSeries, context_len: int, horizon: int) -> np.ndarray:
    """The first prediction hour t0 of every window, ascending, stride 1:
    context values[t0 - context_len:t0], target values[t0:t0 + horizon],
    never past the end."""
    if context_len < 1 or horizon < 1:
        raise TraceError("context_len and horizon must be >= 1")
    n = len(series)
    if context_len + horizon > n:
        raise TraceError(
            f"series of length {n} too short for context {context_len} + horizon {horizon}"
        )
    return np.arange(context_len, n - horizon + 1)

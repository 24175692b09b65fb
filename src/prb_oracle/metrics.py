"""Forecast evaluation: point errors on medians, calibration metrics, and
provisioning statistics.

Reductions use math.fsum (correctly rounded), so results are independent of
summation order and reproducible bit for bit.
"""

from __future__ import annotations

from math import fsum

import numpy as np


class MetricError(ValueError):
    """Invalid metric inputs."""


def _pair(truth, pred, op: str) -> tuple[np.ndarray, np.ndarray]:
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.shape != pred.shape or truth.ndim != 1 or truth.size < 1:
        raise MetricError(f"{op}: need equal-length vectors, got {truth.shape} and {pred.shape}")
    return truth, pred


def point_errors(truth, pred) -> tuple[float, float, float]:
    """(mse, mae, mape%) of a point forecast; truth must be strictly positive."""
    truth, pred = _pair(truth, pred, "point_errors")
    if np.any(truth <= 0.0):
        idx = int(np.argmax(truth <= 0.0))
        raise MetricError(f"point_errors: truth[{idx}] = {truth[idx]} makes MAPE undefined")
    err = truth - pred
    n = truth.size
    mse = fsum(err * err) / n
    mae = fsum(np.abs(err)) / n
    mape = 100.0 * fsum(np.abs(err) / truth) / n
    return mse, mae, mape


def normalized_deviation(truth, pred) -> float:
    """sum |y - yhat| / sum |y|."""
    truth, pred = _pair(truth, pred, "normalized_deviation")
    denom = fsum(np.abs(truth))
    if denom == 0.0:
        raise MetricError("normalized_deviation: all-zero truth")
    return fsum(np.abs(truth - pred)) / denom


def quantile_loss(truth, qpred, q: float) -> float:
    """Mean 2x pinball loss of a q-quantile forecast; equals MAE at q=0.5."""
    truth, qpred = _pair(truth, qpred, "quantile_loss")
    if not 0.0 < q < 1.0:
        raise MetricError(f"quantile_loss: q must be in (0,1), got {q}")
    over = np.maximum(truth - qpred, 0.0)   # demand above the quantile
    under = np.maximum(qpred - truth, 0.0)
    return fsum(2.0 * (q * over + (1.0 - q) * under)) / truth.size


def crps(samples, truth) -> float:
    """Mean continuous ranked probability score of Monte Carlo forecasts.

    samples is (S, n), S draws for each of the n hours in truth. Per hour it
    is the energy form E|X - y| - E|X - X'| / 2 (Gneiting & Raftery 2007),
    the second term as a weighted sum of the sorted draws with weights
    (2i - S - 1) / S^2, i = 1..S, so no S x S table is formed. One draw gives
    the absolute error.
    """
    samples = np.asarray(samples, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1:] != truth.shape \
            or truth.size < 1:
        raise MetricError(f"crps: need (S, n) samples for n hours, got {samples.shape} and "
                          f"{truth.shape}")
    s = samples.shape[0]
    weights = (2.0 * np.arange(1, s + 1) - s - 1.0) / (s * s)
    spread = weights @ np.sort(samples, axis=0)
    return fsum(np.abs(samples - truth).mean(axis=0) - spread) / truth.size


def coverage(truth, qpred) -> float:
    """Fraction of hours with truth at or below the quantile forecast."""
    truth, qpred = _pair(truth, qpred, "coverage")
    return float(np.count_nonzero(truth <= qpred)) / truth.size


def provisioning(truth, alloc) -> tuple[float, float]:
    """(over%, under%) of an allocation; ties count as over (demand met)."""
    truth, alloc = _pair(truth, alloc, "provisioning")
    over = 100.0 * float(np.count_nonzero(alloc >= truth)) / truth.size
    return over, 100.0 - over

"""Decision engine: forecast distribution + percentile policy -> integer PRB plan."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forecasters import ForecastResult, forecast_quantile


class DecisionError(ValueError):
    """Invalid allocation policy."""


@dataclass(frozen=True)
class AllocationPolicy:
    """Provision at this forecast percentile; ceil then clamp to [0, max_prb]."""

    percentile: float

    def __post_init__(self):
        if not 0.0 < self.percentile < 1.0:
            raise DecisionError(f"percentile must be in (0,1), got {self.percentile}")


@dataclass(frozen=True)
class AllocationPlan:
    prbs: np.ndarray  # integer PRBs per hour
    policy: AllocationPolicy
    model_kind: str

    def __post_init__(self):
        object.__setattr__(self, "prbs", np.asarray(self.prbs, dtype=np.int64))


def ceil_clamp(demand, max_prb: int) -> np.ndarray:
    """Integer PRBs per hour: ceil keeps them at or above the demand, clamping
    to [0, max_prb] enforces the physical range (forecast tails may stray)."""
    return np.clip(np.ceil(demand), 0, max_prb).astype(np.int64)


def allocate(result: ForecastResult, policy: AllocationPolicy, max_prb: int,
             model_kind: str = "") -> AllocationPlan:
    """PRBs per hour: `ceil_clamp` of the policy quantile."""
    q = forecast_quantile(result, policy.percentile)
    return AllocationPlan(prbs=ceil_clamp(q, max_prb), policy=policy, model_kind=model_kind)

"""Base-station power model with a PRB-load surrogate for the traffic term.

Static terms (sleep baseline, baseband, RF chains, amplifier) are fixed
normalized constants; the transmission term grows linearly with PRB load.
Full-load total power is normalized to 1.0, so the dynamic budget is
1 - sum(static terms); power-saving percentages are independent of that
normalization because the constant cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traces import DEFAULT_MAX_PRB


class PowerError(ValueError):
    """Invalid power-model parameters or allocations."""


@dataclass(frozen=True)
class PowerParams:
    """Normalized power constants; defaults are the fitted benchmark values."""

    p0: float = 0.22
    p_bb: float = 0.16
    p_tran: float = 0.09408
    p_pa: float = 0.24382
    max_prb: int = DEFAULT_MAX_PRB

    def __post_init__(self):
        if self.max_prb < 1:
            raise PowerError(f"max_prb must be positive, got {self.max_prb}")
        if not self.static_power < 1.0:
            raise PowerError(
                f"static terms sum to {self.static_power}, must be < 1"
            )

    @property
    def static_power(self) -> float:
        return self.p0 + self.p_bb + self.p_tran + self.p_pa

    @property
    def p_out_full(self) -> float:
        """Transmission power at full PRB load; fixed by the unit-total normalization."""
        return 1.0 - self.static_power


def load_ratio(alloc_prbs, params: PowerParams):
    """Allocated PRBs as a fraction of capacity (scalar or vector)."""
    alloc = np.asarray(alloc_prbs, dtype=np.float64)
    if np.any(alloc < 0.0) or np.any(alloc > params.max_prb):
        raise PowerError(f"allocation outside [0, {params.max_prb}]")
    out = alloc / params.max_prb
    return float(out) if out.ndim == 0 else out


def p_out(ratio, params: PowerParams):
    """Transmission power at the given load ratio, linear in the ratio."""
    ratio = np.asarray(ratio, dtype=np.float64)
    out = params.p_out_full * ratio
    return float(out) if out.ndim == 0 else out


def total_power(ratio, params: PowerParams):
    """Static terms plus transmission power; equals 1.0 at full load."""
    ratio = np.asarray(ratio, dtype=np.float64)
    out = params.static_power + params.p_out_full * ratio
    return float(out) if out.ndim == 0 else out


def power_saving(alloc, params: PowerParams) -> tuple[np.ndarray, float]:
    """Per-hour and mean transmission-power saving (%) versus full PRB usage."""
    ratio = np.atleast_1d(load_ratio(alloc, params))
    full = p_out(1.0, params)
    per_hour = 100.0 * (full - p_out(ratio, params)) / full
    return per_hour, float(per_hour.mean())

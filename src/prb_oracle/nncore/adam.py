"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ParameterSet


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ParameterSet, lr: float = 1e-3) -> "AdamState":
        state = cls(lr=lr)
        for name, t in params.items():
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        return state


def adam_step(params: ParameterSet, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One in-place Adam update; increments the step counter."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for name, t in params.items():
        g = grads[name]
        if g.shape != t.data.shape:
            raise ValueError(
                f"adam_step: gradient shape {g.shape} != parameter shape "
                f"{t.data.shape} for {name!r}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        t.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)

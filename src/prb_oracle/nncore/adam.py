"""Adam optimizer with bias correction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParameterSet

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment estimates of all parameters as flat vectors, in `params.names()`
    order, plus the shared step counter. `buf` is the step's scratch vector;
    `views` holds one view of it per parameter, shaped like that parameter."""

    m: np.ndarray
    v: np.ndarray
    buf: np.ndarray
    views: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ParameterSet) -> "AdamState":
        shapes = [t.data.shape for t in params.tensors()]
        offsets = np.cumsum([0] + [math.prod(shape) for shape in shapes])
        buf = np.empty(offsets[-1])
        views = [buf[lo:hi].reshape(shape)
                 for lo, hi, shape in zip(offsets[:-1], offsets[1:], shapes)]
        return cls(np.zeros_like(buf), np.zeros_like(buf), buf, views)


def adam_step(params: ParameterSet, grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    """One in-place Adam update of every parameter at rate `lr`; increments the step counter.

    Runs over the flat moment vectors with the per-parameter operation order,
    so the parameters are those of one update per parameter array."""
    pieces = []
    for name, t in params.items():
        g = grads[name]
        if g.shape != t.data.shape:
            raise ValueError(
                f"adam_step: gradient shape {g.shape} != parameter shape "
                f"{t.data.shape} for {name!r}"
            )
        pieces.append(g.ravel())
    g = np.concatenate(pieces)
    state.step += 1
    m, v, buf = state.m, state.v, state.buf
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=buf)
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=buf)
    v += np.multiply(buf, g, out=buf)
    # g is spent: it takes the denominator, buf the update.
    np.divide(v, 1.0 - BETA2 ** state.step, out=g)
    np.sqrt(g, out=g)
    g += EPS
    np.divide(m, 1.0 - BETA1 ** state.step, out=buf)
    buf *= lr
    buf /= g
    for t, update in zip(params.tensors(), state.views):
        t.data -= update

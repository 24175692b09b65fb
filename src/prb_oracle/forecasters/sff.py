"""Simple feed-forward estimator: context window in, per-step Student-t out.

One pass maps the scaled conditioning window through two hidden layers to
horizon x 3 raw outputs, laid out step-major: [mu, sigma, nu] per step.
"""

from __future__ import annotations

import numpy as np

from .. import nncore as nn
from ..likelihoods import project_studentt, sample, studentt_nll_graph
from ..nncore import ParameterSet


def build(config) -> ParameterSet:
    params = nn.init_params([config.context_len, *config.hidden, 3 * config.horizon],
                            seed=[config.seed, 0])
    w = params[f"w{len(config.hidden)}"]
    # Step-major columns permute the head-major Glorot draw: fits match it up to rounding.
    w.data = w.data.reshape(-1, 3, config.horizon).swapaxes(1, 2).reshape(w.shape)
    return params


def _forward(params: ParameterSet, config, ctx_scaled: np.ndarray) -> nn.Tensor:
    """Raw heads (B, horizon, 3) [mu, sigma, nu] of (B, C) contexts."""
    h = nn.constant(ctx_scaled)
    n_layers = len(config.hidden) + 1
    for i in range(n_layers):
        h = nn.matmul(h, params[f"w{i}"], params[f"b{i}"])
        if i < n_layers - 1:
            h = nn.relu(h)
    return nn.reshape(h, (len(ctx_scaled), config.horizon, 3))


def loss(params, config, ctx_scaled, tgt_scaled, feats) -> nn.Tensor:
    """Student-t NLL per window: the NLL of all B·H steps divided by B."""
    raw = _forward(params, config, ctx_scaled)
    return nn.scale(studentt_nll_graph(raw, tgt_scaled), 1.0 / len(tgt_scaled))


def paths(params, config, ctx_scaled, feats, rng) -> np.ndarray:
    """num_samples draws per step of one context (1, C), one row per sample, in one call."""
    dist = project_studentt(_forward(params, config, ctx_scaled).data[0])
    return sample(dist, rng, config.num_samples)

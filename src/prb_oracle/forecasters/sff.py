"""Simple feed-forward estimator: context window in, per-step Student-t out.

One pass maps the scaled conditioning window through two hidden layers to
horizon x 3 raw outputs, laid out as [all mu | all sigma | all nu].
"""

from __future__ import annotations

import numpy as np

from .. import nncore as nn
from ..likelihoods import project_studentt, sample, studentt_nll_graph
from ..nncore import ParameterSet


def build(config) -> ParameterSet:
    return nn.init_params([config.context_len, *config.hidden, 3 * config.horizon],
                          seed=[config.seed, 0])


def _forward(params: ParameterSet, config, ctx_scaled: np.ndarray) -> nn.Tensor:
    """Raw head outputs as (horizon, 3) rows [mu, sigma, nu]."""
    h = nn.constant(ctx_scaled.reshape(1, -1))
    n_layers = len(config.hidden) + 1
    for i in range(n_layers):
        h = nn.add(nn.matmul(h, params[f"w{i}"]), params[f"b{i}"])
        if i < n_layers - 1:
            h = nn.relu(h)
    return nn.transpose(nn.reshape(h, (3, config.horizon)))


def loss(params, config, ctx_scaled, tgt_scaled, feats) -> nn.Tensor:
    return studentt_nll_graph(_forward(params, config, ctx_scaled), tgt_scaled)


def paths(params, config, ctx_scaled, feats, rng) -> np.ndarray:
    """num_samples independent draws per step, one row per sample, in one call."""
    dist = project_studentt(_forward(params, config, ctx_scaled).data)
    return sample(dist, rng, config.num_samples)

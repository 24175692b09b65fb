"""DeepAR-style estimator: stacked LSTM with a Gaussian head.

`start` warms the LSTM state on the context and `step` advances it to raw
heads (B, m, 2); `base.teacher_forced_loss` and `base.ancestral_paths` drive both.
"""

from __future__ import annotations

import numpy as np

from .. import nncore as nn
from ..likelihoods import gaussian_nll_graph, project_gaussian
from ..nncore import ParameterSet
from .base import ancestral_paths, as_batch, teacher_forced_loss

N_FEATURES = 3  # previous value, hour-of-day, day-of-week
HEAD = (gaussian_nll_graph, project_gaussian)


def build(config) -> ParameterSet:
    params = ParameterSet(seed=[config.seed, 0])
    for layer in range(config.rnn_layers):
        n_in = N_FEATURES if layer == 0 else config.rnn_cells
        params.weight(f"wx{layer}", n_in, 4 * config.rnn_cells)
        params.weight(f"wh{layer}", config.rnn_cells, 4 * config.rnn_cells)
        params.bias(f"bg{layer}", 4 * config.rnn_cells)
    params.weight("w_head", config.rnn_cells, 2)
    params.bias("b_head", 2)
    return params


def start(params, config, ctx_scaled, cov_ctx, rows: int):
    """Each layer's packed [h | c] state, one row per context, warmed on the
    contexts; `rows` > 1 repeats each context's row as constants, so only the
    one-row state keeps its graph."""
    ctx, cov = as_batch(ctx_scaled, cov_ctx)
    state = [nn.constant(np.zeros((len(ctx), 2 * config.rnn_cells)))
             for _ in range(config.rnn_layers)]
    warm = np.concatenate([ctx[:, :-1, None], cov[:, 1:]], axis=2)
    for t in range(warm.shape[1]):
        state = _step(params, config, nn.constant(warm[:, t]), state)
    if rows > 1:
        state = [nn.constant(np.repeat(hc.data, rows, axis=0)) for hc in state]
    return state


def _step(params, config, x: nn.Tensor, state):
    """Advance all layers one step; returns the new state."""
    new_state = []
    for layer, hc in enumerate(state):
        inp = nn.narrow(new_state[-1], 1, 0, config.rnn_cells) if layer else x
        new_state.append(nn.lstm_cell(inp, hc, params[f"wx{layer}"], params[f"wh{layer}"],
                                      params[f"bg{layer}"]))
    return new_state


def step(params, config, inp: np.ndarray, state):
    """Raw heads (B, m, 2) for the m new positions of inp (B, m, 3), and the
    state (B rows) after them."""
    batch, m, _ = inp.shape
    tops = []
    for j in range(m):
        state = _step(params, config, nn.constant(inp[:, j]), state)
        tops.append(nn.narrow(state[-1], 1, 0, config.rnn_cells))
    hidden = nn.reshape(nn.concat(tops, axis=1), (batch, m, config.rnn_cells))
    return nn.affine(hidden, params["w_head"], params["b_head"]), state


def loss(params, config, ctx_scaled, tgt_scaled, feats) -> nn.Tensor:
    return teacher_forced_loss(params, config, ctx_scaled, tgt_scaled, feats)


def paths(params, config, ctx_scaled, feats, rng) -> np.ndarray:
    return ancestral_paths(params, config, ctx_scaled, feats, rng)

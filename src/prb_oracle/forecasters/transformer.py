"""Transformer estimator: self-attention encoder, single-block decoder,
Student-t head.

The encoder ingests the embedded context; the decoder applies masked
self-attention, attention over the encoder output, and a position-wise
feed-forward layer. `start` encodes the context and `step` decodes new
positions; `loss` trains with one causally masked `step` over the horizon,
`base.ancestral_paths` samples one `step` per position, each writing its
self-attention keys and values into a (samples, horizon, d) cache in place.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .. import nncore as nn
from ..likelihoods import project_studentt, studentt_nll_graph
from ..nncore import ParameterSet
from .base import ancestral_paths

N_FEATURES = 3  # previous (encoder: current) value, hour-of-day, day-of-week


def build(config) -> ParameterSet:
    d = config.model_dim
    ff = config.ff_scale * d
    params = ParameterSet(seed=[config.seed, 0])
    for side in ("enc", "dec"):
        params.weight(f"{side}_embed", N_FEATURES, d)
        params.bias(f"{side}_embed_b", d)
    for i in range(config.blocks):
        _attention_params(params, f"enc{i}_attn", d)
        _ff_params(params, f"enc{i}", d, ff)
        _ln_params(params, f"enc{i}_ln1", d)
        _ln_params(params, f"enc{i}_ln2", d)
    _attention_params(params, "dec_self", d)
    _attention_params(params, "dec_cross", d)
    _ff_params(params, "dec", d, ff)
    for name in ("dec_ln1", "dec_ln2", "dec_ln3"):
        _ln_params(params, name, d)
    params.weight("head", d, 3)
    params.bias("head_b", 3)
    return params


def _attention_params(params, prefix, d):
    for proj in ("wq", "wk", "wv", "wo"):
        params.weight(f"{prefix}_{proj}", d, d)


def _ff_params(params, prefix, d, ff):
    params.weight(f"{prefix}_ff1", d, ff)
    params.bias(f"{prefix}_ff1_b", ff)
    params.weight(f"{prefix}_ff2", ff, d)
    params.bias(f"{prefix}_ff2_b", d)


def _ln_params(params, prefix, d):
    params.add(f"{prefix}_g", np.ones((1, d)))
    params.bias(f"{prefix}_b", d)


@functools.lru_cache
def positional_encoding(length: int, d: int, first: int = 0) -> np.ndarray:
    """Sinusoidal position table of positions first .. length - 1, shape (length - first, d).

    Cached, as every step asks for the same few tables; the arrays are read-only."""
    pos = np.arange(first, length, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    table.flags.writeable = False
    return table


def project_kv(params, prefix, x_kv) -> tuple[nn.Tensor, nn.Tensor]:
    """Attention keys and values of `x_kv` (B, t, d)."""
    return nn.matmul(x_kv, params[f"{prefix}_wk"]), nn.matmul(x_kv, params[f"{prefix}_wv"])


def multi_head_attention(params, prefix, x_q, k, v, heads, causal=False) -> nn.Tensor:
    """Attention of the projected queries of `x_q` over keys `k` and values `v`
    (from `project_kv`), all heads in one `attention` node, causal or not."""
    q = nn.matmul(x_q, params[f"{prefix}_wq"])
    return nn.matmul(nn.attention(q, k, v, heads, causal), params[f"{prefix}_wo"])


def _feed_forward(params, prefix, x) -> nn.Tensor:
    inner = nn.relu(nn.matmul(x, params[f"{prefix}_ff1"], params[f"{prefix}_ff1_b"]))
    return nn.matmul(inner, params[f"{prefix}_ff2"], params[f"{prefix}_ff2_b"])


def _sublayer(params, ln_prefix, x, out) -> nn.Tensor:
    return nn.layer_norm(nn.add(x, out), params[f"{ln_prefix}_g"], params[f"{ln_prefix}_b"])


def _embed(params, config, side: str, inp: np.ndarray, positions: np.ndarray) -> nn.Tensor:
    """Embed inputs (B, t, 3); `positions` is the (t, d) table all B sequences share."""
    x = nn.matmul(nn.constant(inp), params[f"{side}_embed"], params[f"{side}_embed_b"])
    # sqrt(d) embedding gain keeps the value signal from drowning in the
    # positional table.
    x = nn.scale(x, math.sqrt(config.model_dim))
    return nn.add(x, nn.constant(np.broadcast_to(positions, x.shape)))


def start(params, config, ctx_scaled, cov_ctx):
    """Encode B contexts (B, C) with their calendar rows (B, C, 2). The state is
    (cross_kv, cache): `project_kv` of the encoder output, (B, C, d) each, one
    memory for any number of decoder rows per context, and no cache yet."""
    inp = np.concatenate([ctx_scaled[..., None], cov_ctx], axis=2)
    x = _embed(params, config, "enc", inp, positional_encoding(config.context_len, config.model_dim))
    for i in range(config.blocks):
        kv = project_kv(params, f"enc{i}_attn", x)
        a = multi_head_attention(params, f"enc{i}_attn", x, *kv, config.heads)
        x = _sublayer(params, f"enc{i}_ln1", x, a)
        x = _sublayer(params, f"enc{i}_ln2", x, _feed_forward(params, f"enc{i}", x))
    return project_kv(params, "dec_cross", x), None


def step(params, config, inp: np.ndarray, state):
    """Raw heads (B, m, 3) for the m new positions of inp (B, m, 3), and the
    state with the cache extended by them.

    The cache is the decoder's self-attention keys and values, two plain
    (B, horizon, d) arrays that a step without a cache allocates, and the count
    of positions filled. Each step writes its m positions into the arrays in
    place, so the state it returns shares them with the state it was given:
    step from a cached state once. Each new position attends to the filled
    positions and the new ones up to itself: in sampling, m = 1 over a view of
    the filled prefix; in `loss`, m > 1 causally over its own taped keys and
    values, with nothing filled. In the cross-attention the B·m positions are
    grouped by context: each of the n_ctx encoded contexts is attended to by
    its B·m / n_ctx positions, (B, m) in training and all (1, S) sample
    positions of the one context in sampling.
    """
    (cross_k, cross_v), cache = state
    batch, m, _ = inp.shape
    d = config.model_dim
    keys, values, filled = cache or (np.empty((batch, config.horizon, d)),
                                     np.empty((batch, config.horizon, d)), 0)
    first = config.context_len + filled
    y = _embed(params, config, "dec", inp, positional_encoding(first + m, d, first))
    k, v = project_kv(params, "dec_self", y)
    keys[:, filled:filled + m] = k.data
    values[:, filled:filled + m] = v.data
    if filled:
        k, v = nn.constant(keys[:, :filled + m]), nn.constant(values[:, :filled + m])
    a = multi_head_attention(params, "dec_self", y, k, v, config.heads, causal=m > 1)
    y = _sublayer(params, "dec_ln1", y, a)
    n_ctx = cross_k.shape[0]
    a2 = multi_head_attention(params, "dec_cross", nn.reshape(y, (n_ctx, batch // n_ctx * m, d)),
                              cross_k, cross_v, config.heads)
    y = _sublayer(params, "dec_ln2", y, nn.reshape(a2, y.shape))
    y = _sublayer(params, "dec_ln3", y, _feed_forward(params, "dec", y))
    return (nn.matmul(y, params["head"], params["head_b"]),
            ((cross_k, cross_v), (keys, values, filled + m)))


def loss(params, config, ctx_scaled, tgt_scaled, feats) -> nn.Tensor:
    """Student-t NLL per window, teacher-forced: `start` on the B contexts, then
    one `step` over the horizon, each position fed the true previous value;
    the NLL of all B·H steps divided by B."""
    state = start(params, config, ctx_scaled, feats["ctx"])
    prev = np.concatenate([ctx_scaled[:, -1:], tgt_scaled[:, :-1]], axis=1)
    raw, _ = step(params, config, np.concatenate([prev[..., None], feats["tgt"]], axis=2), state)
    return nn.scale(studentt_nll_graph(raw, tgt_scaled), 1.0 / len(tgt_scaled))


def paths(params, config, ctx_scaled, feats, rng) -> np.ndarray:
    return ancestral_paths(params, config, ctx_scaled, feats, rng, project_studentt)

"""Transformer estimator: self-attention encoder, single-block decoder,
Student-t head.

The encoder ingests the embedded context; the decoder applies masked
self-attention, attention over the encoder output, and a position-wise
feed-forward layer. One `decode` serves both uses: training is one
teacher-forced, causally masked call over the horizon; forecasting samples
autoregressively, one call per position with all samples as rows of one
batch and the self-attention keys and values cached per sample and head.
"""

from __future__ import annotations

import math

import numpy as np

from .. import nncore as nn
from ..likelihoods import project_studentt, sample, studentt_nll_graph
from ..nncore import ParameterSet

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


def positional_encoding(length: int, d: int, first: int = 0) -> np.ndarray:
    """Sinusoidal position table of positions first .. length - 1, shape (length - first, d)."""
    pos = np.arange(first, length, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def split_heads(x: nn.Tensor, heads: int) -> nn.Tensor:
    """Heads onto the batch axis: (..., t, d) to (B·heads, t, d/heads), B = 1 for 2-D x."""
    t, d = x.shape[-2:]
    batch = x.data.size // (t * d) * heads
    return nn.transpose(nn.reshape(nn.transpose(x), (batch, d // heads, t)))


def merge_heads(x: nn.Tensor, shape: tuple[int, ...]) -> nn.Tensor:
    """Inverse of `split_heads`: (B·heads, t, d/heads) back to `shape` (..., t, d)."""
    return nn.transpose(nn.reshape(nn.transpose(x), (*shape[:-2], shape[-1], shape[-2])))


def project_kv(params, prefix, x_kv, heads) -> tuple[nn.Tensor, nn.Tensor]:
    """Attention keys and values of `x_kv` (2-D rows or a leading batch axis),
    split into heads."""
    return (split_heads(nn.matmul(x_kv, params[f"{prefix}_wk"]), heads),
            split_heads(nn.matmul(x_kv, params[f"{prefix}_wv"]), heads))


def multi_head_attention(params, prefix, x_q, k, v, heads, mask=None) -> nn.Tensor:
    """Attention of the projected queries of `x_q` over split keys `k` and
    values `v` (from `project_kv`), all heads in one batched call. A 2-D
    `mask` applies to every head."""
    q = nn.matmul(x_q, params[f"{prefix}_wq"])
    a = nn.attention(split_heads(q, heads), k, v, mask)
    return nn.matmul(merge_heads(a, q.shape), params[f"{prefix}_wo"])


def _self_attention(params, prefix, x, heads, mask=None) -> nn.Tensor:
    return multi_head_attention(params, prefix, x, *project_kv(params, prefix, x, heads), heads, mask)


def _feed_forward(params, prefix, x) -> nn.Tensor:
    inner = nn.relu(nn.add(nn.matmul(x, params[f"{prefix}_ff1"]), params[f"{prefix}_ff1_b"]))
    return nn.add(nn.matmul(inner, params[f"{prefix}_ff2"]), params[f"{prefix}_ff2_b"])


def _sublayer(params, ln_prefix, x, out) -> nn.Tensor:
    return nn.layer_norm(nn.add(x, out), params[f"{ln_prefix}_g"], params[f"{ln_prefix}_b"])


def _embed(params, config, side: str, inp: np.ndarray, positions: np.ndarray) -> nn.Tensor:
    """Embed input rows; `positions` is their positional table."""
    x = nn.add(nn.matmul(nn.constant(inp), params[f"{side}_embed"]), params[f"{side}_embed_b"])
    # sqrt(d) embedding gain keeps the value signal from drowning in the
    # positional table.
    x = nn.scale(x, math.sqrt(config.model_dim))
    return nn.add(x, nn.constant(positions))


def encode(params, config, ctx_scaled: np.ndarray, cov_ctx: np.ndarray) -> nn.Tensor:
    inp = np.column_stack([ctx_scaled, cov_ctx])
    x = _embed(params, config, "enc", inp, positional_encoding(config.context_len, config.model_dim))
    for i in range(config.blocks):
        a = _self_attention(params, f"enc{i}_attn", x, config.heads)
        x = _sublayer(params, f"enc{i}_ln1", x, a)
        x = _sublayer(params, f"enc{i}_ln2", x, _feed_forward(params, f"enc{i}", x))
    return x


def decode(params, config, inp: np.ndarray, first_pos: int, cross_kv, cache=None):
    """Decoder raw head outputs for B sequences of m new positions each.

    inp is (B, m, 3), rows [previous value, hour, day-of-week] at positions
    first_pos .. first_pos + m - 1; cross_kv is `project_kv` of the encoder
    output, one memory shared by all B sequences. `cache` holds the
    self-attention keys and values of the earlier positions, split per
    sequence and head as `project_kv` returns them, (B·heads, t, d/heads)
    each, or is None at the first decoder position. Each new position attends
    causally to the cached ones and the new ones up to itself. Returns the raw
    outputs (B·m, 3), sequence by sequence, and the cache extended by m
    positions. Teacher-forced training is one call with B = 1 and no cache;
    sampling is one call per position with m = 1 and a row per sample.
    """
    batch, m, _ = inp.shape
    d, rows = config.model_dim, batch * m
    table = np.tile(positional_encoding(first_pos + m, d, first_pos), (batch, 1))
    y = nn.reshape(_embed(params, config, "dec", inp.reshape(rows, -1), table), (batch, m, d))
    k, v = project_kv(params, "dec_self", y, config.heads)
    if cache is not None:
        k, v = nn.concat([cache[0], k], axis=1), nn.concat([cache[1], v], axis=1)
    mask = nn.causal_mask(k.shape[1])[-m:] if m > 1 else None
    a = multi_head_attention(params, "dec_self", y, k, v, config.heads, mask)
    # Everything after the self-attention acts on the (B·m, d) rows, one by one.
    y = _sublayer(params, "dec_ln1", nn.reshape(y, (rows, d)), nn.reshape(a, (rows, d)))
    a2 = multi_head_attention(params, "dec_cross", y, *cross_kv, config.heads)
    y = _sublayer(params, "dec_ln2", y, a2)
    y = _sublayer(params, "dec_ln3", y, _feed_forward(params, "dec", y))
    return nn.add(nn.matmul(y, params["head"]), params["head_b"]), (k, v)


def loss(params, config, ctx_scaled, tgt_scaled, feats) -> nn.Tensor:
    enc_out = encode(params, config, ctx_scaled, feats["ctx"])
    cross_kv = project_kv(params, "dec_cross", enc_out, config.heads)
    prev = np.concatenate([[ctx_scaled[-1]], tgt_scaled[:-1]])
    inp = np.column_stack([prev, feats["tgt"]])[None]
    raw, _ = decode(params, config, inp, config.context_len, cross_kv)
    return studentt_nll_graph(raw, tgt_scaled)


def paths(params, config, ctx_scaled, feats, rng) -> np.ndarray:
    """Ancestral roll-outs of all samples at once, one row per sample: the
    context is encoded once, then each step decodes one new row per sample."""
    enc_out = encode(params, config, ctx_scaled, feats["ctx"])
    cross_kv = project_kv(params, "dec_cross", enc_out, config.heads)
    n = config.num_samples
    out = np.empty((n, config.horizon))
    prev = np.full(n, float(ctx_scaled[-1]))
    cache = None
    for t in range(config.horizon):
        inp = np.column_stack([prev, np.broadcast_to(feats["tgt"][t], (n, 2))])
        raw, cache = decode(params, config, inp[:, None], config.context_len + t, cross_kv, cache)
        prev = out[:, t] = sample(project_studentt(raw.data), rng, 1)[0]
    return out

"""The fused nncore ops, multi-head attention among them, against the
composites of primitives they replace.

Each reference below is the composite the model code used before the op or
layout existed, kept here only as an oracle: the new path's value and its
input gradients must match it to float rounding. The `reference_*` kernels
are earlier numpy expressions of the fused ops themselves, which the current
ones must match bit for bit. `lstm_cell` runs a whole sequence; its oracles
are one-step cells chained over the positions, as the models ran them, with a
(B, T, 2n) [h | c] output. The node, h (B, T, n), is checked against the
chain's h columns, and its last [h | c] array (B, 1, 2n) against the chain's
final state. deepar's one-pass loss has the warm-up-then-horizon pair of calls
it replaced.
"""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import exported_ops, max_rel_err
from prb_oracle import nncore as nn
from prb_oracle.cli import default_config_path
from prb_oracle.forecasters import ForecasterConfig, deepar, lstm, sff, transformer
from prb_oracle.likelihoods import gaussian_nll_graph
from prb_oracle.nncore import AdamState, adam_step, tensor
from prb_oracle.rapp import ExperimentConfig
from prb_oracle.nncore.tensor import _LANCZOS_COEFFS, _LANCZOS_G

TOL = 1e-12


def bias_row_add(a, b):
    """The old `add` branch that broadcast a (1, n) bias row b over the rows of a."""
    def backprop(g):
        tensor._accumulate(a, g)
        tensor._accumulate(b, g.sum(axis=0, keepdims=True))

    return tensor._node(a.data + b.data, "add", (a, b), backprop)


# Test-side ops for the composites below: no training step tapes them, so
# nncore does not export them.

def tanh(a):
    out = np.tanh(a.data)
    return tensor._node(out, "tanh", (a,), lambda g: tensor._accumulate(a, g * (1.0 - out * out)))


def sigmoid(a):
    out = 0.5 * np.tanh(0.5 * a.data) + 0.5
    return tensor._node(out, "sigmoid", (a,), lambda g: tensor._accumulate(a, g * out * (1.0 - out)))


def sqrt(a):
    out = np.sqrt(a.data)
    return tensor._node(out, "sqrt", (a,), lambda g: tensor._accumulate(a, g / (2.0 * out)))


def softmax(a):
    """Softmax over the last axis."""
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def backprop(g):
        tensor._accumulate(a, out * (g - (g * out).sum(axis=-1, keepdims=True)))

    return tensor._node(out, "softmax", (a,), backprop)


def concat(tensors, axis):
    """Join along `axis`; each input's gradient is its slice of the adjoint."""
    cuts = np.cumsum([t.shape[axis] for t in tensors[:-1]])

    def backprop(g):
        for t, part in zip(tensors, np.split(g, cuts, axis=axis)):
            tensor._accumulate(t, part)

    return tensor._node(np.concatenate([t.data for t in tensors], axis=axis), "concat",
                        tuple(tensors), backprop)


def transpose(a):
    """Swap the last two axes."""
    return tensor._node(np.swapaxes(a.data, -1, -2).copy(), "transpose", (a,),
                        lambda g: tensor._accumulate(a, np.swapaxes(g, -1, -2)))


def entry_matmul(a, b):
    """Product over the last two axes, entry by entry along a shared batch axis."""
    def backprop(g):
        tensor._accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        tensor._accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return tensor._node(a.data @ b.data, "matmul", (a, b), backprop)


def composite_lstm_cell(x, hc, wx, wh, b):
    """The old deepar cell on separate h and c, repacked as [h | c]."""
    n = wh.shape[0]
    h, c = nn.narrow(hc, 1, 0, n), nn.narrow(hc, 1, n, n)
    gates = bias_row_add(nn.add(nn.matmul(x, wx), nn.matmul(h, wh)), b)
    i = sigmoid(nn.narrow(gates, 1, 0, n))
    f = sigmoid(nn.narrow(gates, 1, n, n))
    g = tanh(nn.narrow(gates, 1, 2 * n, n))
    o = sigmoid(nn.narrow(gates, 1, 3 * n, n))
    c_new = nn.add(nn.mul(f, c), nn.mul(i, g))
    h_new = nn.mul(o, tanh(c_new))
    return concat([h_new, c_new], axis=1)


def start_state(batch, n):
    """A non-zero [h | c] start state (batch, 1, 2n), fixed per shape: lstm_cell
    takes its start state as a plain array, not as an input to differentiate."""
    return np.random.default_rng([batch, n]).normal(size=(batch, 1, 2 * n))


def fused_lstm_cell(x, wx, wh, b):
    """nn.lstm_cell's h node from `start_state`, as a function of the inputs it
    differentiates."""
    return nn.lstm_cell(x, start_state(x.shape[0], wh.shape[0]), wx, wh, b)[0]


def cell_chain(cell):
    """A sequence op x (B, T, k) -> (B, T, 2n) from a one-step cell on (B, ·)
    rows: the chain of T cells deepar and lstm once built, each fed x[:, t]
    and the state the cell before it made. The first starts from the tensor
    hc (B, 1, 2n), which takes a gradient, or else from `start_state`."""
    def chain(x, wx, wh, b, hc=None):
        batch, steps, k = x.shape
        if hc is None:
            hc = nn.constant(start_state(batch, wh.shape[0]))
        state, outs = nn.reshape(hc, (batch, hc.shape[2])), []
        for t in range(steps):
            state = cell(nn.reshape(nn.narrow(x, 1, t, 1), (batch, k)), state, wx, wh, b)
            outs.append(state)
        return nn.reshape(concat(outs, axis=1), (batch, steps, hc.shape[2]))

    return chain


def h_columns(chain):
    """A chain's h columns (B, T, n): what lstm_cell's node holds."""
    return lambda x, wx, wh, b: nn.narrow(chain(x, wx, wh, b), 2, 0, wh.shape[0])


def composite_layer_norm(x, gain, bias, eps=1e-5):
    """The old 13-op layer norm built from matmuls against ones."""
    n, d = x.shape
    ones_row = nn.constant(np.ones((1, d)))
    mean_col = nn.matmul(x, nn.constant(np.full((d, 1), 1.0 / d)))
    centered = nn.sub(x, nn.matmul(mean_col, ones_row))
    var_col = nn.matmul(nn.square(centered), nn.constant(np.full((d, 1), 1.0 / d)))
    inv_std = nn.div(nn.constant(np.ones((n, 1))), sqrt(nn.add_const(var_col, eps)))
    normed = nn.mul(centered, nn.matmul(inv_std, ones_row))
    return bias_row_add(nn.mul(normed, nn.matmul(nn.constant(np.ones((n, 1))), gain)), bias)


def composite_log_gamma(z):
    """The old chain-rule Lanczos log-gamma: its gradient came from the graph."""
    t = nn.add_const(z, _LANCZOS_G - 0.5)
    series = nn.constant(np.full(z.shape, _LANCZOS_COEFFS[0]))
    for k, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series = nn.add(series, nn.div(nn.constant(np.full(z.shape, c)),
                                       nn.add_const(z, float(k - 1))))
    lead = nn.mul(nn.add_const(z, -0.5), nn.log(t))
    return nn.add_const(nn.add(nn.sub(lead, t), nn.log(series)), 0.5 * math.log(2.0 * math.pi))


def composite_biased_matmul(x, w, b):
    """The old bias layer of 2-D x: the entry product, then the bias-row add.
    Built without `nn.matmul`, the op it checks."""
    return bias_row_add(entry_matmul(x, w), b)


def _value_and_grads(op, inputs, probe):
    leaves = [nn.Tensor(x.copy(), requires_grad=True) for x in inputs]
    out = op(*leaves)
    nn.backward(nn.sum_all(nn.mul(out, nn.constant(probe))))
    return out.data, [leaf.grad for leaf in leaves]


def _assert_matches(fused, oracle, inputs, rng):
    probe = rng.normal(size=oracle(*map(nn.constant, inputs)).shape)
    want, want_grads = _value_and_grads(oracle, inputs, probe)
    got, got_grads = _value_and_grads(fused, inputs, probe)
    assert got.shape == want.shape
    assert max_rel_err(got, want) <= TOL
    for g, w in zip(got_grads, want_grads):
        assert max_rel_err(g, w) <= TOL


def _inputs(kind, rng):
    if kind == "lstm_cell":
        return _lstm_inputs(rng, 5, 4, 3, 6)
    if kind == "layer_norm":
        return [rng.normal(loc=2.0, scale=3.0, size=(7, 8)), rng.normal(size=(1, 8)),
                rng.normal(size=(1, 8))]
    if kind == "matmul":
        return [rng.normal(size=(7, 5)), rng.normal(size=(5, 4)), rng.normal(size=(1, 4))]
    return [rng.uniform(0.5, 40.0, size=(6, 3))]


CASES = {
    "matmul": (nn.matmul, composite_biased_matmul),
    "lstm_cell": (fused_lstm_cell, h_columns(cell_chain(composite_lstm_cell))),
    "layer_norm": (nn.layer_norm, composite_layer_norm),
    "lgamma": (nn.lgamma, composite_log_gamma),
}


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_op_matches_its_composite(kind, seed):
    rng = np.random.default_rng(seed)
    inputs = _inputs(kind, rng)
    _assert_matches(*CASES[kind], inputs, rng)


def test_fused_ops_are_single_nodes():
    rng = np.random.default_rng(3)
    for kind, (fused, _) in CASES.items():
        out = fused(*map(nn.constant, _inputs(kind, rng)))
        assert out.op == kind
        assert all(parent.op == "leaf" for parent in out._parents)


def test_fused_op_shape_errors():
    def ones(*shape):
        return nn.constant(np.ones(shape))

    # lstm_cell takes x (B, T, k) with T >= 1 and the array hc (B, 1, 2n).
    for x, hc, wx in [((2, 5, 3), (2, 1, 6), (3, 16)), ((2, 5, 3), (2, 1, 8), (2, 16)),
                      ((2, 3), (2, 1, 8), (3, 16)), ((2, 5, 3), (2, 8), (3, 16)),
                      ((2, 0, 3), (2, 1, 8), (3, 16))]:
        with pytest.raises(nn.ShapeMismatch, match="lstm_cell"):
            nn.lstm_cell(ones(*x), np.ones(hc), ones(*wx), ones(4, 16), ones(1, 16))
    with pytest.raises(nn.ShapeMismatch, match="layer_norm"):
        nn.layer_norm(ones(2, 3), ones(1, 4), ones(1, 3))
    with pytest.raises(nn.ShapeMismatch, match="layer_norm"):
        nn.layer_norm(ones(4), ones(1, 4), ones(1, 4))
    with pytest.raises(nn.ShapeMismatch, match="matmul"):
        nn.matmul(ones(2, 3), ones(3, 4), ones(1, 3))
    with pytest.raises(nn.ShapeMismatch, match="matmul"):
        nn.matmul(ones(3), ones(3, 4), ones(1, 4))
    with pytest.raises(nn.ShapeMismatch, match="matmul"):
        nn.matmul(ones(2, 2, 3), ones(4, 4), ones(1, 4))
    # add takes equal shapes only: a bias row goes through matmul's b.
    with pytest.raises(nn.ShapeMismatch, match="add"):
        nn.add(ones(2, 4), ones(1, 4))


def _reference_gates(x, h, wx, wh, b):
    n = wh.shape[0]
    z = x @ wx + h @ wh + b
    act = np.tanh(np.concatenate([0.5 * z[:, :2 * n], z[:, 2 * n:3 * n], 0.5 * z[:, 3 * n:]], axis=1))
    sig = 0.5 * act + 0.5
    return sig, (sig[:, :n], sig[:, n:2 * n], act[:, 2 * n:3 * n], sig[:, 3 * n:])


def reference_lstm_cell(x, hc, wx, wh, b):
    """lstm_cell as out-of-place expressions, with a three-slice concat for the
    gates' tanh arguments."""
    n = wh.shape[0]
    h, c = hc.data[:, :n], hc.data[:, n:]
    _, (i, f, g, o) = _reference_gates(x.data, h, wx.data, wh.data, b.data)
    c_new = f * c + i * g
    out_data = np.concatenate([o * np.tanh(c_new), c_new], axis=1)

    def backprop(grad):
        sig, (i, f, g, o) = _reference_gates(x.data, h, wx.data, wh.data, b.data)
        tanh_c = np.tanh(np.ascontiguousarray(out_data[:, n:]))
        gh, gc = grad[:, :n], grad[:, n:]
        dc = gc + gh * o * (1.0 - tanh_c * tanh_c)
        d_act = np.concatenate([dc * g, dc * c, dc * i, gh * tanh_c], axis=1)
        dz = d_act * sig * (1.0 - sig)
        dz[:, 2 * n:3 * n] = d_act[:, 2 * n:3 * n] * (1.0 - g * g)
        tensor._accumulate(x, dz @ wx.data.T)
        tensor._accumulate(wx, x.data.T @ dz)
        tensor._accumulate(wh, h.T @ dz)
        tensor._accumulate(b, dz.sum(axis=0, keepdims=True))
        tensor._accumulate(hc, np.concatenate([dz @ wh.data.T, dc * f], axis=1))

    return tensor._node(out_data, "lstm_cell", (x, hc, wx, wh, b), backprop)


def reference_layer_norm(x, gain, bias, eps=1e-5):
    """layer_norm as out-of-place expressions with `.mean`."""
    centered = x.data - x.data.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=1, keepdims=True) + eps)
    normed = centered * inv_std
    out_data = normed * gain.data + bias.data

    def backprop(g):
        gn = g * gain.data
        inner = gn - gn.mean(axis=1, keepdims=True)
        tensor._accumulate(x, inv_std * (inner - normed * (gn * normed).mean(axis=1, keepdims=True)))
        tensor._accumulate(gain, (g * normed).sum(axis=0, keepdims=True))
        tensor._accumulate(bias, g.sum(axis=0, keepdims=True))

    return tensor._node(out_data, "layer_norm", (x, gain, bias), backprop)


def _lstm_inputs(rng, rows, steps, k, n):
    """x, wx, wh and b of one layer; the start state is `start_state`."""
    return [rng.normal(size=(rows, steps, k)), rng.normal(scale=0.5, size=(k, 4 * n)),
            rng.normal(scale=0.5, size=(n, 4 * n)), rng.normal(scale=0.5, size=(1, 4 * n))]


def _layer_norm_inputs(rng, rows, d):
    return [rng.normal(loc=1.0, scale=2.0, size=(rows, d)), rng.normal(size=(1, d)),
            rng.normal(size=(1, d))]


BIT_CASES = {
    # One lstm_cell node per layer against the chain of one-step cells it
    # replaced, at batch 32 and 40 cells: deepar's 3-wide input and the
    # 40-wide hidden rows of its upper layer over its 47 teacher-forced
    # positions (23 warm-up, 24 horizon), and the lstm baseline's 1-wide context.
    "lstm_cell_k3": (fused_lstm_cell, h_columns(cell_chain(reference_lstm_cell)),
                     lambda rng: _lstm_inputs(rng, 32, 47, 3, 40)),
    "lstm_cell_k40": (fused_lstm_cell, h_columns(cell_chain(reference_lstm_cell)),
                      lambda rng: _lstm_inputs(rng, 32, 47, 40, 40)),
    "lstm_cell_k1": (fused_lstm_cell, h_columns(cell_chain(reference_lstm_cell)),
                     lambda rng: _lstm_inputs(rng, 32, 24, 1, 40)),
    # The transformer's rows: batch 8 times 24 positions, model width 32.
    "layer_norm": (nn.layer_norm, reference_layer_norm, lambda rng: _layer_norm_inputs(rng, 192, 32)),
    # A width that is no power of two, where / d and * (1 / d) round apart.
    "layer_norm_d40": (nn.layer_norm, reference_layer_norm, lambda rng: _layer_norm_inputs(rng, 7, 40)),
}


@pytest.mark.parametrize("case", sorted(BIT_CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_fused_kernel_is_its_reference_bit_for_bit(case, seed):
    # The in-place kernels keep every output and gradient of the reference
    # expressions, so fitted parameters do not move by a single bit. The
    # sequence lstm_cell also sums its weight gradients over the positions in
    # the order the chain's nodes accumulated them.
    op, reference, make_inputs = BIT_CASES[case]
    rng = np.random.default_rng(seed)
    inputs = make_inputs(rng)
    probe = nn.constant(rng.normal(size=reference(*map(nn.constant, inputs)).shape))
    results = []
    for fn in (reference, op):
        leaves = [nn.Tensor(x.copy(), requires_grad=True) for x in inputs]
        out = fn(*leaves)
        nn.backward(nn.sum_all(nn.mul(nn.softplus(out), probe)))
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for got, want in zip(results[1], results[0]):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("steps, k", [(24, 1), (47, 3), (47, 40)])
@pytest.mark.parametrize("seed", [0, 1])
def test_lstm_cell_last_state_is_the_chains_bit_for_bit(steps, k, seed):
    # The node holds h only, so its last [h | c] is where c is compared: the
    # chain's final packed state, to the bit, at the BIT_CASES shapes.
    x, wx, wh, b = map(nn.constant, _lstm_inputs(np.random.default_rng(seed), 32, steps, k, 40))
    _, last = nn.lstm_cell(x, start_state(32, 40), wx, wh, b)
    want = cell_chain(reference_lstm_cell)(x, wx, wh, b).data[:, -1:]
    assert last.shape == (32, 1, 80) and np.array_equal(last, want)


def two_call_deepar_loss(params, cfg, ctx, tgt, feats):
    """deepar's loss as two calls per layer: `start` over the C - 1 warm-up
    positions, then `step` over the horizon from the warm-up's last state,
    which carries the gradient back into the warm-up. Each call is the chain
    of one-step cells that lstm_cell matches bit for bit."""
    layer = cell_chain(reference_lstm_cell)

    def layers(inp, state):
        x, last = nn.constant(inp), []
        for i, hc in enumerate(state):
            out = layer(x, params[f"wx{i}"], params[f"wh{i}"], params[f"bg{i}"], hc)
            last.append(nn.narrow(out, 1, inp.shape[1] - 1, 1))
            x = nn.narrow(out, 2, 0, cfg.rnn_cells)
        return x, last

    state = [nn.constant(np.zeros((len(ctx), 1, 2 * cfg.rnn_cells)))] * cfg.rnn_layers
    warm = np.concatenate([ctx[:, :-1, None], feats["ctx"][:, 1:]], axis=2)
    if warm.shape[1]:
        _, state = layers(warm, state)
    prev = np.concatenate([ctx[:, -1:], tgt[:, :-1]], axis=1)
    hidden, _ = layers(np.concatenate([prev[..., None], feats["tgt"]], axis=2), state)
    raw = nn.matmul(hidden, params["w_head"], params["b_head"])
    return nn.scale(gaussian_nll_graph(raw, tgt), 1.0 / len(tgt))


@pytest.mark.parametrize("context_len", [1, 5])
def test_deepar_one_pass_loss_is_its_warm_up_then_horizon_calls(context_len):
    # One pass from a zero state runs the same cells on the same inputs as
    # the two calls, so the loss is equal; the weight gradients are summed in
    # another order. A one-hour context has no warm-up position.
    cfg = ForecasterConfig(kind="deepar", context_len=context_len, horizon=4, rnn_cells=6)
    rng = np.random.default_rng(context_len)
    ctx, tgt = rng.uniform(0.5, 1.5, (4, context_len)), rng.uniform(0.5, 1.5, (4, 4))
    feats = {"ctx": rng.uniform(size=(*ctx.shape, 2)), "tgt": rng.uniform(size=(*tgt.shape, 2))}
    params = deepar.build(cfg)
    want = two_call_deepar_loss(params, cfg, ctx, tgt, feats)
    want_value, want_grads = want.item(), nn.backward(want, params)
    got = deepar.loss(params, cfg, ctx, tgt, feats)
    assert got.item() == want_value
    for name, g in nn.backward(got, params).items():
        want_grad = want_grads[name]
        assert np.max(np.abs(g - want_grad)) <= TOL * np.max(np.abs(want_grad)), name


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("x_needs_grad", [True, False])
def test_affine_is_its_composite_bit_for_bit(rows, x_needs_grad):
    # An affine layer, matmul with its bias row, is one node for the product
    # and the bias-row add: its values and gradients must be the pair's, equal
    # and not merely close.
    rng = np.random.default_rng(rows)
    x, w, b = rng.normal(size=(rows, 5)), rng.normal(size=(5, 4)), rng.normal(size=(1, 4))
    probe = nn.constant(rng.normal(size=(rows, 4)))
    results = []
    for op in (composite_biased_matmul, nn.matmul):
        leaves = [nn.Tensor(x, requires_grad=x_needs_grad), nn.Tensor(w, requires_grad=True),
                  nn.Tensor(b, requires_grad=True)]
        out = op(*leaves)
        nn.backward(nn.sum_all(nn.mul(nn.softplus(out), probe)))
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for got, want in zip(results[1], results[0]):
        assert (got is None and want is None) or np.array_equal(got, want)


# The op each layer runs and the shapes of its inputs after x: matmul with and
# without its bias row, and layer_norm.
ROW_OPS = {
    "matmul": (nn.matmul, [(32, 3)]),
    "affine": (nn.matmul, [(32, 3), (1, 3)]),
    "layer_norm": (nn.layer_norm, [(1, 32)] * 2),
}


@pytest.mark.parametrize("shape", [(8, 24, 32), (100, 1, 32), (1, 100, 32)])
@pytest.mark.parametrize("op", sorted(ROW_OPS))
def test_leading_axes_are_the_flattened_rows_bit_for_bit(op, shape):
    # The models keep (B, t, d) batches through matmul and layer_norm (the
    # transformer's training shape, its sampling shape, and one long
    # sequence): the op on them is the op on their B·t rows, in values and in
    # input gradients.
    fn, rest_shapes = ROW_OPS[op]
    rng = np.random.default_rng(shape[0])
    x = rng.normal(loc=1.0, scale=2.0, size=shape)
    rest = [rng.normal(size=s) for s in rest_shapes]
    probe = rng.normal(size=(*shape[:-1], rest[0].shape[1]))
    results = []
    for x_shape in (shape, (shape[0] * shape[1], 32)):
        leaves = [nn.Tensor(a, requires_grad=True) for a in (x.reshape(x_shape), *rest)]
        out = fn(*leaves)
        nn.backward(nn.sum_all(nn.mul(nn.softplus(out), nn.constant(probe.reshape(out.shape)))))
        results.append([out.data.ravel()] + [leaf.grad.ravel() for leaf in leaves])
    assert all(np.array_equal(got, want) for got, want in zip(*results))


# ---------------------------------------------------------------------------
# what a taped training step keeps
# ---------------------------------------------------------------------------

MODULES = {"sff": sff, "deepar": deepar, "transformer": transformer, "lstm": lstm}


def _default_step(kind, seed):
    """default.json's config for `kind` and one random training batch at its
    batch size: scaled contexts, targets and their calendar features."""
    default = ExperimentConfig.from_dict(json.loads(default_config_path().read_text()))
    cfg = default.models[kind]
    rng = np.random.default_rng(seed)
    ctx = rng.uniform(0.5, 1.5, (cfg.batch_size, cfg.context_len))
    tgt = rng.uniform(0.5, 1.5, (cfg.batch_size, cfg.horizon))
    feats = {"ctx": rng.uniform(size=(*ctx.shape, 2)), "tgt": rng.uniform(size=(*tgt.shape, 2))}
    return cfg, ctx, tgt, feats


@pytest.mark.parametrize("kind, nodes", [("sff", 35), ("deepar", 19), ("transformer", 81),
                                         ("lstm", 7)])
def test_a_default_training_step_tapes_a_fixed_number_of_nodes(kind, nodes):
    # Batches keep their (B, t, ·) layout from input to likelihood, so no row
    # reshape is taped: with them the transformer taped 89 nodes and sff 37.
    # sff's step-major head reshapes straight to (B, horizon, 3), with no
    # transpose (36 nodes).
    # One lstm_cell node runs a layer over a whole sequence: deepar tapes one
    # per layer over its warm-up and horizon together (one for each taped 28
    # nodes; its one-step cells, their narrows and the horizon's concat and
    # reshape 183), and lstm one for the context (its 24 cells made 30 nodes).
    # The node is the layer's h, so no narrow drops its c columns: with one per
    # layer, deepar taped 21 nodes and lstm 8.
    cfg, ctx, tgt, feats = _default_step(kind, 13)
    params = MODULES[kind].build(cfg)
    before = next(tensor._creation)
    MODULES[kind].loss(params, cfg, ctx, tgt, feats)
    assert next(tensor._creation) - before - 1 == nodes


def test_default_training_steps_tape_exactly_the_exported_ops():
    # nncore exports what the four estimators' training losses tape: an op
    # that no default.json training step runs has no place in it.
    taped = {}
    for kind, mod in MODULES.items():
        cfg, ctx, tgt, feats = _default_step(kind, 13)
        stack = [mod.loss(mod.build(cfg), cfg, ctx, tgt, feats)]
        while stack:
            node = stack.pop()
            if node._parents and id(node) not in taped:
                taped[id(node)] = node.op
                stack.extend(node._parents)
    ops = set(taped.values())
    assert ops == exported_ops(), (f"exported, never taped: {sorted(exported_ops() - ops)}; "
                                   f"taped, not exported: {sorted(ops - exported_ops())}")


def test_backward_frees_interior_gradients_and_keeps_leaf_ones():
    # Two layers stacked as deepar's are: the second runs on the first's h.
    rng = np.random.default_rng(8)
    inputs = _lstm_inputs(rng, 5, 4, 3, 6) + _lstm_inputs(rng, 5, 4, 6, 6)[1:]
    leaves = [nn.Tensor(x, requires_grad=True) for x in inputs]
    x, wx, wh, b, wx1, wh1, b1 = leaves
    first, _ = nn.lstm_cell(x, start_state(5, 6), wx, wh, b)
    second, _ = nn.lstm_cell(first, start_state(5, 6), wx1, wh1, b1)
    loss = nn.sum_all(nn.square(second))
    nn.backward(loss)
    for interior in (first, second, loss):
        assert interior.grad is None and interior._parents is None
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape and np.any(leaf.grad != 0.0)


def _step_peak(kind, seed):
    """tracemalloc's peak over one default.json training step of `kind`:
    loss, backward and Adam update, at its batch size of 32."""
    cfg, ctx, tgt, feats = _default_step(kind, seed)
    assert cfg.batch_size == 32
    mod = MODULES[kind]
    params = mod.build(cfg)
    state = AdamState.for_params(params)
    tracemalloc.start()
    try:
        adam_step(params, nn.backward(mod.loss(params, cfg, ctx, tgt, feats), params), state,
                  cfg.lr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_a_batch_32_deepar_step_keeps_a_small_tape():
    # Each lstm_cell node runs a layer over a sequence and keeps only its
    # [h | c] states, no gate arrays, and backward frees each interior
    # gradient once used: one training step at default.json shapes and batch
    # size peaks near 3.3 MB, while its graph holds 2.3 MB (stored gates and
    # kept gradients: about 12 MB). When the node was the packed (B, 47, 2n)
    # [h | c] sequence, the narrow to each layer's h zero-filled one of those
    # in the backward, and the step peaked near 3.8 MB.
    peak = _step_peak("deepar", 9)
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


def test_a_default_lstm_step_keeps_a_small_tape():
    # The lstm's node is its h (B, 24, n), and only its last position feeds
    # the head: one training step peaks near 1.1 MB. A narrow that dropped
    # the c columns of a packed [h | c] node zero-filled a (B, 24, 2n)
    # gradient, and the step peaked near 1.34 MB.
    peak = _step_peak("lstm", 11)
    assert peak < 1.2e6, f"peak {peak / 1e6:.2f} MB"


def test_a_default_transformer_step_keeps_a_lean_tape():
    # matmul keeps one output per bias layer and attention keeps no softmax
    # weights, so the forward of one default.json training step keeps about
    # 3.9 MB alive for its backward (the add(matmul) pairs and stored weights
    # kept 5.9 MB at batch 8).
    cfg, ctx, tgt, feats = _default_step("transformer", 10)
    assert cfg.batch_size == 8
    params = transformer.build(cfg)
    tracemalloc.start()
    try:
        loss = transformer.loss(params, cfg, ctx, tgt, feats)
        taped, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nn.backward(loss, params)
    assert taped < 4.5e6, f"taped {taped / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# multi-head attention: one node against the per-head composite
# ---------------------------------------------------------------------------

HEADS, DIM = 4, 8


def causal_mask(n):
    """The additive causal mask the composite takes: -1e9 on every key after
    its query, (n queries, n keys)."""
    return np.triu(np.full((n, n), -1e9), k=1)


def composite_attention(q, k, v, mask=None):
    """The old six-node attention: matmul, transpose, scale, mask add, softmax, matmul."""
    scores = nn.scale(entry_matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = nn.add(scores, nn.constant(np.broadcast_to(mask, scores.shape)))
    return entry_matmul(softmax(scores), v)


def composite_heads(q, k, v, mask=None, heads=1):
    """The old per-head path: narrow each head out of q, k and v on the last
    axis, one composite attention per head, and a concat to join them."""
    if heads == 1:
        return composite_attention(q, k, v, mask)
    axis = q.data.ndim - 1
    outs = [composite_attention(*(nn.narrow(t, axis, h * t.shape[-1] // heads, t.shape[-1] // heads)
                                  for t in (q, k, v)), mask)
            for h in range(heads)]
    return concat(outs, axis=axis)


def _named(weights):
    return dict(zip(("a_wq", "a_wk", "a_wv", "a_wo"), weights))


def composite_multi_head_attention(params, x_q, x_kv, heads, mask=None):
    """Projections around the per-head composite."""
    q, k, v = (nn.matmul(x, params[f"a_{w}"]) for x, w in ((x_q, "wq"), (x_kv, "wk"), (x_kv, "wv")))
    return nn.matmul(composite_heads(q, k, v, mask, heads), params["a_wo"])


def _split_cache_attention(x_new, x_prev, *weights):
    """The cached decoder's layout: earlier positions' keys and values cached,
    the new position's appended on the time axis."""
    params = _named(weights)
    cache = transformer.project_kv(params, "a", x_prev)
    k, v = transformer.project_kv(params, "a", x_new)
    k, v = concat([cache[0], k], axis=1), concat([cache[1], v], axis=1)
    return transformer.multi_head_attention(params, "a", x_new, k, v, HEADS)


def _cached_steps(x, *weights):
    """The sampling decoder: four m=1 steps, each appending its keys and
    values to the cache and attending over all of it."""
    params, cache, outs = _named(weights), None, []
    for t in range(x.shape[1]):
        x_t = nn.narrow(x, 1, t, 1)
        k, v = transformer.project_kv(params, "a", x_t)
        if cache is not None:
            k, v = concat([cache[0], k], axis=1), concat([cache[1], v], axis=1)
        cache = k, v
        outs.append(transformer.multi_head_attention(params, "a", x_t, k, v, HEADS))
    return concat(outs, axis=1)


CAUSAL = causal_mask(5)
MHA_CASES = {
    # name: (input shapes before the four weights, the model's path, per-head oracle)
    "causal_2d": (
        [(5, DIM)],
        lambda x, *w: transformer.multi_head_attention(
            _named(w), "a", x, *transformer.project_kv(_named(w), "a", x), HEADS, causal=True),
        lambda x, *w: composite_multi_head_attention(_named(w), x, x, HEADS, CAUSAL),
    ),
    "batched_3d": (
        [(3, 2, DIM), (3, 4, DIM)],
        lambda xq, xkv, *w: transformer.multi_head_attention(
            _named(w), "a", xq, *transformer.project_kv(_named(w), "a", xkv), HEADS),
        lambda xq, xkv, *w: composite_multi_head_attention(_named(w), xq, xkv, HEADS),
    ),
    "split_cache": (
        [(3, 1, DIM), (3, 4, DIM)],
        _split_cache_attention,
        lambda xn, xp, *w: composite_multi_head_attention(
            _named(w), xn, concat([xp, xn], axis=1), HEADS),
    ),
    # Four cached m=1 steps against one uncached, causally masked call.
    "cached_steps": (
        [(3, 4, DIM)],
        _cached_steps,
        lambda x, *w: composite_multi_head_attention(_named(w), x, x, HEADS, causal_mask(4)),
    ),
}

ATTENTION_CASES = {
    # name: (q, k, v shapes, causal); the composite takes CAUSAL for causal=True
    "causal_2d": ([(5, DIM), (5, DIM), (5, DIM)], True),
    "batched_mask_2d": ([(3, 5, DIM), (3, 5, DIM), (3, 5, DIM)], True),
    "cross": ([(3, 2, DIM), (3, 6, DIM), (3, 6, 12)], False),
    # One query per row, as each sampling step of the decoder asks.
    "single_query": ([(3, 1, DIM), (3, 6, DIM), (3, 6, 12)], False),
}


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
@pytest.mark.parametrize("heads", [1, HEADS])
@pytest.mark.parametrize("seed", [0, 1])
def test_attention_matches_the_per_head_composite(case, heads, seed):
    rng = np.random.default_rng(seed)
    shapes, causal = ATTENTION_CASES[case]
    inputs = [rng.normal(size=s) for s in shapes]
    _assert_matches(lambda q, k, v: nn.attention(q, k, v, heads, causal),
                    lambda q, k, v: composite_heads(q, k, v, CAUSAL if causal else None, heads),
                    inputs, rng)


@pytest.mark.parametrize("tk", [4, 6])
def test_causal_attention_needs_as_many_keys_as_queries(tk):
    q, k, v = (nn.constant(np.ones(s)) for s in ((2, 5, DIM), (2, tk, DIM), (2, tk, DIM)))
    with pytest.raises(nn.ShapeMismatch, match="causal=True"):
        nn.attention(q, k, v, HEADS, causal=True)


@pytest.mark.parametrize("case", sorted(MHA_CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_multi_head_attention_matches_per_head_slices(case, seed):
    rng = np.random.default_rng(seed)
    shapes, model_path, per_head = MHA_CASES[case]
    inputs = [rng.normal(size=s) for s in shapes]
    inputs += [rng.normal(scale=0.5, size=(DIM, DIM)) for _ in range(4)]
    _assert_matches(model_path, per_head, inputs, rng)


def test_multi_head_attention_has_no_per_head_nodes():
    rng = np.random.default_rng(4)
    shapes = [(5, DIM)] + [(DIM, DIM)] * 4
    leaves = [nn.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    out = MHA_CASES["causal_2d"][1](*leaves)
    ops, stack = [], [out]
    while stack:
        node = stack.pop()
        ops.append(node.op)
        stack.extend(node._parents)
    assert ops.count("attention") == 1
    assert not {"softmax", "transpose", "narrow", "concat"} & set(ops)


@pytest.mark.parametrize("causal", [False, True], ids=["cross", "causal"])
def test_attention_keeps_no_softmax_weights(causal):
    # The backward rebuilds the weights from q, k and one log-sum-exp per
    # query row, so the node's closure holds no array as large as one set of
    # weights, heads * tq * tk entries, in any layout. q, k, v and the output
    # are kept smaller than that here, so only a kept score array can trip it.
    rng = np.random.default_rng(11)
    tk = 5 if causal else 6
    q, k, v = (nn.Tensor(rng.normal(size=s), requires_grad=True)
               for s in ((2, 5, DIM), (2, tk, DIM), (2, tk, DIM)))
    out = nn.attention(q, k, v, HEADS, causal)
    held = [c.cell_contents for c in out._backprop.__closure__]
    arrays = [x for x in held if isinstance(x, np.ndarray)]
    arrays += [t.data for t in held if isinstance(t, nn.Tensor)]
    assert any(a.shape == (2, HEADS, 5) for a in arrays)  # the log-sum-exp
    assert not [a.shape for a in arrays if a.size >= HEADS * 5 * tk]


def test_attention_gives_masked_keys_exactly_nothing():
    # Query row 0 of a causal attention sees key 0 only. Its weights on keys
    # 1-4 are exp(-1e9 - lse), which underflows to 0, so a loss that reads
    # only row 0 sends exactly zero gradient to the rows of k and v after it.
    rng = np.random.default_rng(12)
    q, k, v = (nn.Tensor(rng.normal(size=(2, 5, DIM)), requires_grad=True) for _ in range(3))
    out = nn.attention(q, k, v, HEADS, causal=True)
    probe = np.zeros(out.shape)
    probe[:, 0] = rng.normal(size=(2, DIM))
    nn.backward(nn.sum_all(nn.mul(out, nn.constant(probe))))
    assert np.all(k.grad[:, 1:] == 0.0) and np.all(v.grad[:, 1:] == 0.0)
    assert np.all(v.grad[:, 0] != 0.0)


@pytest.mark.parametrize("kind", ["deepar", "transformer"])
def test_step_batches_sequences_and_chains_positions(kind):
    # One network step for training and sampling: a batch of B sequences
    # gives the heads of B single-sequence calls, and chained one-position
    # steps give the heads of one multi-position (teacher-forced) step.
    cfg = ForecasterConfig(kind=kind, context_len=4, horizon=4, num_samples=3, rnn_cells=DIM,
                           model_dim=DIM, ff_scale=2, heads=HEADS, blocks=1)
    mod = {"deepar": deepar, "transformer": transformer}[kind]
    params = mod.build(cfg)
    inp = np.random.default_rng(5).uniform(0.0, 1.0, (3, 4, 3))
    ctx, cov = np.linspace(0.8, 1.2, 4)[None], np.random.default_rng(6).uniform(0.0, 1.0, (1, 4, 2))
    whole, _ = mod.step(params, cfg, inp, mod.start(params, cfg, ctx, cov))
    one = mod.start(params, replace(cfg, num_samples=1), ctx, cov)
    singles = [mod.step(params, cfg, seq[None], one)[0].data[0] for seq in inp]
    state, steps = mod.start(params, cfg, ctx, cov), []
    for t in range(4):
        raw, state = mod.step(params, cfg, inp[:, t:t + 1], state)
        steps.append(raw.data)
    n = whole.shape[2]
    assert whole.shape == (3, 4, n) and raw.shape == (3, 1, n)
    assert np.max(np.abs(whole.data - np.stack(singles))) <= 1e-12
    assert np.max(np.abs(np.concatenate(steps, axis=1) - whole.data)) <= 1e-12
    if kind == "transformer":
        # The sampling cache is plain keys and values, no graph nodes.
        assert all(isinstance(a, np.ndarray) and a.shape == (3, 4, DIM) for a in state[1])

"""Autodiff core: forward oracles, gradient checks, Adam, init."""

import gc
import inspect
import weakref

import numpy as np
import pytest

from conftest import check_op_gradients, max_rel_err, numeric_grad, primitive_cases
from prb_oracle import nncore as nn
from prb_oracle.nncore import (
    AdamState,
    ParameterSet,
    ShapeMismatch,
    adam_step,
    backward,
    init_params,
)
from prb_oracle.nncore import tensor


# ---------------------------------------------------------------------------
# forward oracles
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = np.random.default_rng(0).normal(size=(3, 3))
    out = nn.matmul(nn.constant(np.eye(3)), nn.constant(a))
    assert np.allclose(out.data, a, atol=0, rtol=0)


def test_softplus_at_zero_is_log2():
    assert nn.softplus(nn.constant(np.zeros((1, 1)))).item() == pytest.approx(
        np.log(2.0), abs=1e-12
    )


def test_softmax_symmetry_and_normalization():
    out = nn.softmax(nn.constant(np.zeros((1, 2))))
    assert np.array_equal(out.data, [[0.5, 0.5]])
    rng = np.random.default_rng(3)
    rows = nn.softmax(nn.constant(rng.normal(size=(6, 9), scale=4))).data
    assert np.all(np.abs(rows.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(rows > 0)


def test_narrow_is_plain_slicing():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 6))
    assert np.array_equal(nn.narrow(nn.constant(x), 1, 2, 3).data, x[:, 2:5])
    assert np.array_equal(nn.narrow(nn.constant(x), 0, 1, 2).data, x[1:3, :])


def test_shape_errors_report_both_shapes():
    with pytest.raises(ShapeMismatch, match=r"matmul.*\(3, 4\).*\(3, 4\)"):
        nn.matmul(nn.constant(np.ones((3, 4))), nn.constant(np.ones((3, 4))))
    with pytest.raises(ShapeMismatch, match="add"):
        nn.add(nn.constant(np.ones((2, 2))), nn.constant(np.ones((3, 2))))


def test_attention_uniform_weights_average_values():
    # Zero queries/keys give uniform attention: output rows = mean of v rows.
    v = np.arange(8.0).reshape(4, 2)
    out = nn.attention(nn.constant(np.zeros((3, 5))), nn.constant(np.zeros((4, 5))),
                       nn.constant(v))
    assert np.allclose(out.data, np.tile(v.mean(axis=0), (3, 1)))


def test_causal_mask_hides_future():
    rng = np.random.default_rng(5)
    q = rng.normal(size=(4, 3))
    k = rng.normal(size=(4, 3))
    v = rng.normal(size=(4, 2))
    masked = nn.attention(nn.constant(q), nn.constant(k), nn.constant(v), nn.causal_mask(4))
    # First row can only attend to position 0.
    assert np.allclose(masked.data[0], v[0])


def test_batched_attention_matches_each_entry():
    rng = np.random.default_rng(8)
    q, k, v = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 2))
    mask = np.triu(np.full((2, 5), -1e9), k=4)  # the first query may not see the last key
    batched = nn.attention(nn.constant(q), nn.constant(k), nn.constant(v),
                           np.broadcast_to(mask, (3, 2, 5))).data
    assert batched.shape == (3, 2, 2)
    for s in range(3):
        single = nn.attention(nn.constant(q[s]), nn.constant(k[s]), nn.constant(v[s]), mask)
        assert np.allclose(batched[s], single.data, rtol=0, atol=1e-14)


def test_batch_axis_shape_errors():
    def ones(*shape):
        return nn.constant(np.ones(shape))

    with pytest.raises(ShapeMismatch, match="matmul"):
        nn.matmul(ones(2, 3, 4), ones(3, 4, 2))  # batch sizes differ
    with pytest.raises(ShapeMismatch, match="matmul"):
        nn.matmul(ones(3, 4), ones(2, 4, 2))  # only the left operand is batched alone
    with pytest.raises(ShapeMismatch, match="attention"):
        nn.attention(ones(2, 1, 4), ones(3, 5, 4), ones(3, 5, 2))
    with pytest.raises(ShapeMismatch, match="softmax"):
        nn.softmax(ones(2, 2, 2, 2))


def test_layer_norm_rows_standardized():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 8), loc=3.0, scale=2.0)
    gain = nn.constant(np.ones((1, 8)))
    bias = nn.constant(np.zeros((1, 8)))
    out = nn.layer_norm(nn.constant(x), gain, bias).data
    assert np.all(np.abs(out.mean(axis=1)) < 1e-12)
    assert np.all(np.abs(out.std(axis=1) - 1.0) < 1e-3)  # eps-regularized


def test_forward_and_backward_stay_finite():
    rng = np.random.default_rng(7)
    params = init_params([6, 8, 1], seed=11)
    x = nn.constant(rng.normal(size=(4, 6)))
    h = nn.tanh(nn.add(nn.matmul(x, params["w0"]), params["b0"]))
    loss = nn.sum_all(nn.square(nn.add(nn.matmul(h, params["w1"]), params["b1"])))
    grads = backward(loss, params)
    assert np.isfinite(loss.item())
    for g in grads.values():
        assert np.all(np.isfinite(g))


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,builder,inputs", primitive_cases(),
                         ids=[c[0] for c in primitive_cases()])
def test_primitive_gradients(name, builder, inputs):
    check_op_gradients(builder, inputs)


def test_every_exported_op_has_a_gradient_case():
    # Every function nncore exports from its tensor module is an op, except
    # these three, which record no node of their own.
    not_ops = {"backward", "causal_mask", "constant"}
    ops = {name for name in nn.__all__
           if inspect.isfunction(getattr(nn, name))
           and getattr(nn, name).__module__ == tensor.__name__} - not_ops
    cases = [c[0] for c in primitive_cases()]
    missing = sorted(op for op in ops if not any(c == op or c.startswith(op + "_") for c in cases))
    assert ops and not missing, f"ops without a finite-difference case: {missing}"


def test_backward_square():
    x = nn.Tensor(np.array([[3.0]]), requires_grad=True)
    backward(nn.sum_all(nn.square(x)))
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_backward_softplus_at_zero():
    x = nn.Tensor(np.array([[0.0]]), requires_grad=True)
    backward(nn.sum_all(nn.softplus(x)))
    assert x.grad[0, 0] == pytest.approx(0.5)


def test_backward_requires_scalar_loss():
    x = nn.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeMismatch, match="scalar"):
        backward(nn.square(x))


def test_backward_two_layer_net_matches_finite_differences():
    rng = np.random.default_rng(21)
    params = init_params([5, 7, 3], seed=13)
    x = rng.normal(size=(2, 5))
    y = rng.normal(size=(2, 3))

    def forward():
        h = nn.tanh(nn.add(nn.matmul(nn.constant(x), params["w0"]), params["b0"]))
        out = nn.add(nn.matmul(h, params["w1"]), params["b1"])
        return nn.sum_all(nn.square(nn.sub(out, nn.constant(y))))

    grads = backward(forward(), params)
    for name, tensor in params.items():
        numeric = numeric_grad(lambda: forward().item(), tensor.data)
        assert max_rel_err(grads[name], numeric) < 1e-4, name


def test_unreachable_parameters_get_zero_gradients():
    params = init_params([3, 4, 2], seed=5)
    x = nn.constant(np.ones((1, 3)))
    loss = nn.sum_all(nn.matmul(x, params["w0"]))  # w1/b1 unused
    grads = backward(loss, params)
    assert np.any(grads["w0"] != 0.0)
    assert np.all(grads["w1"] == 0.0)
    assert np.all(grads["b0"] == 0.0)


def test_an_op_is_taped_only_when_an_input_requires_grad():
    backward(nn.sum_all(nn.Tensor(np.ones((1, 1)), requires_grad=True)))  # empty the tape
    a = nn.constant(np.ones((2, 2)))
    const = nn.mul(a, a)
    assert const._parents == () and not const.requires_grad
    assert tensor._tape == []
    x = nn.Tensor(np.full((2, 2), 3.0), requires_grad=True)
    out = nn.mul(a, x)
    assert out.requires_grad and out._parents == (a, x)
    assert [r() for r in tensor._tape] == [out]


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

def _two_layer_loss(params, x):
    h = nn.tanh(nn.add(nn.matmul(nn.constant(x), params["w0"]), params["b0"]))
    return nn.sum_all(nn.square(nn.add(nn.matmul(h, params["w1"]), params["b1"])))


def test_tape_is_empty_after_backward():
    params = init_params([3, 4, 2], seed=1)
    loss = _two_layer_loss(params, np.ones((2, 3)))
    assert len(tensor._tape) >= 7
    backward(loss, params)
    assert tensor._tape == []


def test_forward_only_graphs_do_not_change_a_later_loss_gradients():
    params = init_params([3, 4, 2], seed=2)
    x = np.random.default_rng(0).normal(size=(2, 3))
    want = backward(_two_layer_loss(params, x), params)
    # Graphs built with gradients on but never backpropagated: one kept alive,
    # one dropped, both sharing the parameters of the loss that follows.
    kept = _two_layer_loss(params, 2.0 * x)
    _two_layer_loss(params, 3.0 * x)
    got = backward(_two_layer_loss(params, x), params)
    for name in want:
        assert np.array_equal(got[name], want[name]), name
    assert kept.grad is None


def test_a_consumed_graph_raises_on_a_second_backward():
    params = init_params([3, 4, 2], seed=3)
    loss = _two_layer_loss(params, np.ones((2, 3)))
    backward(loss, params)
    with pytest.raises(RuntimeError, match="consumed"):
        backward(loss, params)
    # Also when only part of the graph is reused by a new loss.
    h = nn.tanh(nn.matmul(nn.constant(np.ones((1, 3))), params["w0"]))
    backward(nn.sum_all(h))
    with pytest.raises(RuntimeError, match="consumed by an earlier backward"):
        backward(nn.sum_all(nn.square(h)))


def test_graphs_dropped_without_backward_are_freed():
    x = nn.Tensor(np.ones((2, 2)), requires_grad=True)
    ref = weakref.ref(nn.square(x))
    gc.collect()
    assert ref() is None
    backward(nn.sum_all(x))  # empty the tape
    recorded = 20_000
    for _ in range(recorded):
        nn.square(x)
    assert len(tensor._tape) < recorded / 2  # dead references are dropped as it grows


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def _one_param(value):
    params = ParameterSet()
    params.add("p", value)
    return params


def test_adam_zero_gradient_fixed_point():
    params = _one_param(np.array([[1.5, -2.0]]))
    before = params["p"].data.copy()
    state = AdamState.for_params(params, lr=0.1)
    adam_step(params, {"p": np.zeros((1, 2))}, state)
    assert np.array_equal(params["p"].data, before)
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    params = _one_param(np.array([[1.0]]))
    state = AdamState.for_params(params, lr=1e-3)
    adam_step(params, {"p": np.array([[0.37]])}, state)
    # Bias-corrected first step is lr * g / (|g| + eps) ~= lr * sign(g).
    assert params["p"].data[0, 0] == pytest.approx(1.0 - 1e-3, abs=1e-8)


def test_adam_deterministic():
    runs = []
    for _ in range(2):
        params = _one_param(np.array([[0.3, -0.7]]))
        state = AdamState.for_params(params, lr=0.01)
        rng = np.random.default_rng(42)
        for _ in range(20):
            adam_step(params, {"p": rng.normal(size=(1, 2))}, state)
        runs.append(params["p"].data.copy())
    assert np.array_equal(runs[0], runs[1])


def test_adam_shape_mismatch_rejected():
    params = _one_param(np.ones((2, 2)))
    state = AdamState.for_params(params)
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, {"p": np.ones((1, 2))}, state)


# ---------------------------------------------------------------------------
# init + freezing
# ---------------------------------------------------------------------------

def test_init_params_biases_zero_weights_bounded():
    params = init_params([24, 40, 40, 72], seed=3)
    for i, (fan_in, fan_out) in enumerate([(24, 40), (40, 40), (40, 72)]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = params[f"w{i}"].data
        assert w.shape == (fan_in, fan_out)
        assert np.all(np.abs(w) <= bound)
        assert np.all(params[f"b{i}"].data == 0.0)


def test_init_params_deterministic():
    a = init_params([5, 6, 2], seed=9)
    b = init_params([5, 6, 2], seed=9)
    c = init_params([5, 6, 2], seed=10)
    assert all(np.array_equal(a[n].data, b[n].data) for n in a.names())
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())


def test_init_params_rejects_bad_sizes():
    with pytest.raises(ValueError):
        init_params([5], seed=0)
    with pytest.raises(ValueError):
        init_params([5, 0, 3], seed=0)


def test_parameter_freeze_blocks_writes():
    params = init_params([3, 4, 2], seed=0)
    assert all(t.requires_grad for t in params.tensors())
    params.freeze()
    assert not any(t.requires_grad for t in params.tensors())
    for t in params.tensors():
        with pytest.raises(ValueError):
            t.data[0, 0] = 1.0
    # Frozen parameters are constants: a forward on them records nothing.
    backward(nn.sum_all(nn.Tensor(np.ones((1, 1)), requires_grad=True)))  # empty the tape
    _two_layer_loss(params, np.ones((2, 3)))
    assert tensor._tape == []

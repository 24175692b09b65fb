"""Autodiff core: forward oracles, gradient checks, Adam, init."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from conftest import check_op_gradients, exported_ops, max_rel_err, numeric_grad, primitive_cases
from prb_oracle import nncore as nn
from prb_oracle.nncore import (
    AdamState,
    ParameterSet,
    ShapeMismatch,
    adam,
    adam_step,
    backward,
    init_params,
)


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
    masked = nn.attention(nn.constant(q), nn.constant(k), nn.constant(v), causal=True)
    # First row can only attend to position 0.
    assert np.allclose(masked.data[0], v[0])


def test_batched_attention_matches_each_entry():
    rng = np.random.default_rng(8)
    q, k, v = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 2))
    batched = nn.attention(nn.constant(q), nn.constant(k), nn.constant(v), causal=True).data
    assert batched.shape == (3, 5, 2)
    for s in range(3):
        single = nn.attention(nn.constant(q[s]), nn.constant(k[s]), nn.constant(v[s]), causal=True)
        assert np.allclose(batched[s], single.data, rtol=0, atol=1e-14)


def test_batch_axis_shape_errors():
    def ones(*shape):
        return nn.constant(np.ones(shape))

    # matmul's right operand is one (k, m) matrix shared by every row of x.
    for left, right in [((2, 3, 4), (2, 4, 2)), ((2, 3, 4), (3, 4, 2)), ((3, 4), (2, 4, 2)),
                        ((4,), (4, 2))]:
        with pytest.raises(ShapeMismatch, match="matmul"):
            nn.matmul(ones(*left), ones(*right))
    with pytest.raises(ShapeMismatch, match="attention"):
        nn.attention(ones(2, 1, 4), ones(3, 5, 4), ones(3, 5, 2))


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
    h = nn.softplus(nn.matmul(x, params["w0"], params["b0"]))
    loss = nn.sum_all(nn.square(nn.matmul(h, params["w1"], params["b1"])))
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
    ops = exported_ops()
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
        h = nn.softplus(nn.matmul(nn.constant(x), params["w0"], params["b0"]))
        out = nn.matmul(h, params["w1"], params["b1"])
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
    a = nn.constant(np.ones((2, 2)))
    const = nn.mul(a, a)
    assert const._parents == () and not const.requires_grad
    x = nn.Tensor(np.full((2, 2), 3.0), requires_grad=True)
    out = nn.mul(a, x)
    assert out.requires_grad and out._parents == (a, x)
    assert nn.square(out)._seq > out._seq  # numbered in creation order


def test_backward_leaves_a_constant_operand_without_a_gradient():
    rng = np.random.default_rng(12)
    x, w = nn.constant(rng.normal(size=(4, 3))), nn.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    q = nn.Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    k, v = nn.constant(rng.normal(size=(2, 5, 4))), nn.constant(rng.normal(size=(2, 5, 4)))
    loss = nn.add(nn.sum_all(nn.matmul(x, w)), nn.sum_all(nn.attention(q, k, v, heads=2)))
    backward(loss)
    assert x.grad is None and k.grad is None and v.grad is None
    assert np.allclose(w.grad, np.tile(x.data.sum(axis=0)[:, None], (1, 2)), rtol=0, atol=1e-14)
    assert q.grad.shape == q.shape


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

def _two_layer_loss(params, x):
    h = nn.softplus(nn.matmul(nn.constant(x), params["w0"], params["b0"]))
    return nn.sum_all(nn.square(nn.matmul(h, params["w1"], params["b1"])))


def _taped_nodes(loss):
    """The taped nodes of loss's graph, in creation order."""
    found, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node._parents:
            found[id(node)] = node
            stack.extend(node._parents)
    return sorted(found.values(), key=lambda node: node._seq)


def test_tape_is_empty_after_backward():
    params = init_params([3, 4, 2], seed=1)
    loss = _two_layer_loss(params, np.ones((2, 3)))
    nodes = _taped_nodes(loss)
    assert [node.op for node in nodes] == ["matmul", "softplus", "matmul", "square", "sum_all"]
    backward(loss, params)
    for node in nodes:  # consumed: nothing left to run or to keep alive
        assert node._parents is None and node._backprop is None and node.grad is None
    assert all(p.grad is not None for p in params.tensors())


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


def test_a_second_loss_on_shared_parameters_keeps_its_graph():
    params = init_params([3, 2], seed=4)
    x = np.random.default_rng(1).normal(size=(2, 3))

    def loss(scale):
        return nn.sum_all(nn.square(nn.matmul(nn.constant(scale * x), params["w0"], params["b0"])))

    want_first, want_second = backward(loss(1.0), params), backward(loss(2.0), params)
    first, second = loss(1.0), loss(2.0)  # both graphs alive at once
    got_first, got_second = backward(first, params), backward(second, params)
    for name in params.names():
        assert np.array_equal(got_first[name], want_first[name]), name
        assert np.array_equal(got_second[name], want_second[name]), name


def test_graphs_built_in_threads_do_not_consume_each_other():
    x = np.random.default_rng(2).normal(size=(2, 3))

    def steps():
        params = init_params([3, 4, 2], seed=1)
        return [backward(_two_layer_loss(params, x), params) for _ in range(50)]

    want, results, errors = steps(), {}, []

    def work(i):
        try:
            results[i] = steps()
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between ops
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    for got in results.values():
        for step_got, step_want in zip(got, want, strict=True):
            for name in step_want:
                assert np.array_equal(step_got[name], step_want[name]), name


def test_a_consumed_graph_raises_on_a_second_backward():
    params = init_params([3, 4, 2], seed=3)
    loss = _two_layer_loss(params, np.ones((2, 3)))
    backward(loss, params)
    with pytest.raises(RuntimeError, match="consumed"):
        backward(loss, params)
    # Also when only part of the graph is reused by a new loss.
    h = nn.softplus(nn.matmul(nn.constant(np.ones((1, 3))), params["w0"]))
    backward(nn.sum_all(h))
    with pytest.raises(RuntimeError, match="consumed by an earlier backward"):
        backward(nn.sum_all(nn.square(h)))


def test_graphs_dropped_without_backward_are_freed():
    x = nn.Tensor(np.ones((2, 2)), requires_grad=True)
    ref = weakref.ref(nn.square(x).data)  # freed with the node that holds it
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def _one_param(value):
    params = ParameterSet(seed=0)
    params.add("p", value)
    return params


def test_adam_zero_gradient_fixed_point():
    params = _one_param(np.array([[1.5, -2.0]]))
    before = params["p"].data.copy()
    state = AdamState.for_params(params)
    adam_step(params, {"p": np.zeros((1, 2))}, state, 0.1)
    assert np.array_equal(params["p"].data, before)
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    params = _one_param(np.array([[1.0]]))
    state = AdamState.for_params(params)
    adam_step(params, {"p": np.array([[0.37]])}, state, 1e-3)
    # Bias-corrected first step is lr * g / (|g| + eps) ~= lr * sign(g).
    assert params["p"].data[0, 0] == pytest.approx(1.0 - 1e-3, abs=1e-8)


def test_adam_deterministic():
    runs = []
    for _ in range(2):
        params = _one_param(np.array([[0.3, -0.7]]))
        state = AdamState.for_params(params)
        rng = np.random.default_rng(42)
        for _ in range(20):
            adam_step(params, {"p": rng.normal(size=(1, 2))}, state, 0.01)
        runs.append(params["p"].data.copy())
    assert np.array_equal(runs[0], runs[1])


def _per_tensor_adam_step(params, grads, state, lr, m, v):
    """The update one parameter array at a time, as it was before the flat
    moment vectors: the reference the flat step must reproduce bit for bit."""
    state.step += 1
    b1, b2 = adam.BETA1, adam.BETA2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for name, t in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / bias1
        v_hat = v[name] / bias2
        t.data -= lr * m_hat / (np.sqrt(v_hat) + adam.EPS)


def test_flat_adam_is_the_per_tensor_loop_bit_for_bit():
    flat, ref = init_params([3, 5, 4, 2], seed=7), init_params([3, 5, 4, 2], seed=7)
    flat_state, ref_state = AdamState.for_params(flat), AdamState.for_params(ref)
    m = {name: np.zeros_like(t.data) for name, t in ref.items()}
    v = {name: np.zeros_like(t.data) for name, t in ref.items()}
    rng = np.random.default_rng(11)
    for _ in range(500):
        grads = {name: rng.normal(scale=rng.uniform(1e-3, 10.0), size=t.shape)
                 for name, t in flat.items()}
        adam_step(flat, grads, flat_state, 1e-2)
        _per_tensor_adam_step(ref, grads, ref_state, 1e-2, m, v)
    assert flat_state.step == ref_state.step == 500
    for name in flat.names():
        assert np.array_equal(flat[name].data, ref[name].data), name


def test_adam_shape_mismatch_rejected():
    params = _one_param(np.ones((2, 2)))
    state = AdamState.for_params(params)
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, {"p": np.ones((1, 2))}, state, 1e-3)


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


def test_a_parameter_set_needs_a_seed():
    # Weights drawn from OS entropy would make a run differ from itself.
    with pytest.raises(TypeError):
        ParameterSet()


def test_init_params_rejects_bad_sizes():
    with pytest.raises(ValueError):
        init_params([5], seed=0)
    with pytest.raises(ValueError):
        init_params([5, 0, 3], seed=0)


def test_a_parameter_is_a_c_ordered_float64_copy():
    data = np.asfortranarray(np.arange(6, dtype=np.int64).reshape(2, 3))
    t = ParameterSet(seed=0).add("w", data)
    assert t.data.flags.c_contiguous and t.data.dtype == np.float64
    assert np.array_equal(t.data, data) and not np.shares_memory(t.data, data)


def test_numeric_grad_rejects_an_array_it_cannot_perturb_in_place():
    # reshape(-1) of an F-ordered array is a copy: perturbing it would leave
    # x alone and read a zero gradient.
    x = np.asfortranarray(np.ones((2, 3)))
    with pytest.raises(ValueError, match="C-contiguous"):
        numeric_grad(lambda: float(np.sum(x ** 2)), x)


def test_parameter_freeze_blocks_writes():
    params = init_params([3, 4, 2], seed=0)
    assert all(t.requires_grad for t in params.tensors())
    params.freeze()
    assert not any(t.requires_grad for t in params.tensors())
    for t in params.tensors():
        with pytest.raises(ValueError):
            t.data[0, 0] = 1.0
    # Frozen parameters are constants: a forward on them records nothing.
    loss = _two_layer_loss(params, np.ones((2, 3)))
    assert loss._parents == () and not loss.requires_grad

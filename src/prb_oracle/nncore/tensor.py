"""Dense float64 tensors with a taped computation graph and reverse-mode autodiff.

Every operation checks shapes eagerly and computes its forward value with plain
numpy. When one of its inputs requires a gradient, it also records a closure
that scatters the output adjoint back onto its inputs; an op on constants only
records nothing. Nodes go onto a tape of weak references in creation order,
already a topological order (a Wengert list, Griewank & Walther 2008);
`backward` runs the closures in reverse tape order.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

_tape: list = []  # weak refs to the nodes that need a gradient, recorded since the last backward


class ShapeMismatch(ValueError):
    """Operand shapes incompatible for the requested op."""


def _shape_error(op: str, *shapes) -> ShapeMismatch:
    return ShapeMismatch(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")


class Tensor:
    """A node in the computation graph: value, adjoint slot, and provenance."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backprop", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), backprop=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = parents
        self._backprop = backprop

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise _shape_error("item", self.shape)
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"


def constant(data) -> Tensor:
    """Leaf that participates in forward math but never needs a gradient."""
    return Tensor(data)


def _node(data, op: str, parents: tuple, backprop) -> Tensor:
    """Tape the output if some parent requires a gradient; else return a constant."""
    # A plain loop: `any` over a generator costs several times more per op.
    for p in parents:
        if p.requires_grad:
            node = Tensor(data, True, op, parents, backprop)
            _tape.append(weakref.ref(node))
            if len(_tape) % 4096 == 0:  # drop the refs of graphs freed without a backward
                _tape[:] = [r for r in _tape if r() is not None]
            return node
    return Tensor(data, op=op)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; a may carry a leading batch axis.

    (S, m, k) @ (k, n) applies one shared right operand to every batch entry;
    (S, m, k) @ (S, k, n) multiplies entry by entry.
    """
    nd_a, nd_b = a.data.ndim, b.data.ndim
    if not (2 <= nd_a <= 3 and (nd_b == 2 or (nd_b == 3 and nd_a == 3 and a.shape[0] == b.shape[0]))
            and a.shape[-1] == b.shape[-2]):
        raise _shape_error("matmul", a.shape, b.shape)
    out_data = a.data @ b.data

    def backprop(g):
        _accumulate(a, g @ _swap_last(b.data))
        if nd_a > nd_b:  # one right operand shared by every batch entry
            _accumulate(b, a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        else:
            _accumulate(b, _swap_last(a.data) @ g)

    return _node(out_data, "matmul", (a, b), backprop)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; also accepts a (1, n) bias row broadcast over rows of a."""
    bias_row = (
        a.data.ndim == 2 and b.data.ndim == 2
        and b.shape[0] == 1 and b.shape[1] == a.shape[1] and a.shape[0] != 1
    )
    if not bias_row and a.shape != b.shape:
        raise _shape_error("add", a.shape, b.shape)
    out_data = a.data + b.data

    def backprop(g):
        _accumulate(a, g)
        _accumulate(b, g.sum(axis=0, keepdims=True) if bias_row else g)

    return _node(out_data, "add", (a, b), backprop)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _shape_error("sub", a.shape, b.shape)
    out_data = a.data - b.data

    def backprop(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _node(out_data, "sub", (a, b), backprop)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _shape_error("mul", a.shape, b.shape)
    out_data = a.data * b.data

    def backprop(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _node(out_data, "mul", (a, b), backprop)


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _shape_error("div", a.shape, b.shape)
    out_data = a.data / b.data

    def backprop(g):
        _accumulate(a, g / b.data)
        _accumulate(b, -g * a.data / (b.data * b.data))

    return _node(out_data, "div", (a, b), backprop)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = a.data * c

    def backprop(g):
        _accumulate(a, g * c)

    return _node(out_data, "scale", (a,), backprop)


def add_const(a: Tensor, c: float) -> Tensor:
    out_data = a.data + float(c)

    def backprop(g):
        _accumulate(a, g)

    return _node(out_data, "add_const", (a,), backprop)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeMismatch("concat: no inputs")
    ndim = tensors[0].data.ndim
    if any(t.data.ndim != ndim for t in tensors) or not 0 <= axis < ndim:
        raise _shape_error(f"concat(axis={axis})", *[t.shape for t in tensors])
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backprop(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _node(out_data, "concat", tuple(tensors), backprop)


def narrow(a: Tensor, axis: int, start: int, size: int) -> Tensor:
    """Contiguous slice of length `size` along `axis`."""
    if not 0 <= axis < a.data.ndim or start < 0 or start + size > a.shape[axis]:
        raise _shape_error(f"narrow(axis={axis}, start={start}, size={size})", a.shape)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + size)
    idx = tuple(idx)
    out_data = a.data[idx]

    def backprop(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accumulate(a, full)

    return _node(out_data, "narrow", (a,), backprop)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a 2-D or batched 3-D tensor."""
    if a.data.ndim not in (2, 3):
        raise _shape_error("transpose", a.shape)
    out_data = _swap_last(a.data).copy()

    def backprop(g):
        _accumulate(a, _swap_last(g))

    return _node(out_data, "transpose", (a,), backprop)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise _shape_error(f"reshape to {shape}", a.shape)
    out_data = a.data.reshape(shape)

    def backprop(g):
        _accumulate(a, g.reshape(a.shape))

    return _node(out_data, "reshape", (a,), backprop)


def sum_all(a: Tensor) -> Tensor:
    out_data = a.data.sum()

    def backprop(g):
        _accumulate(a, np.full(a.shape, float(g)))

    return _node(out_data, "sum_all", (a,), backprop)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.data.size)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backprop(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _node(out_data, "tanh", (a,), backprop)


def sigmoid(a: Tensor) -> Tensor:
    out_data = 0.5 * np.tanh(0.5 * a.data) + 0.5  # no overflow, unlike 1 / (1 + e^-x)

    def backprop(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _node(out_data, "sigmoid", (a,), backprop)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backprop(g):
        _accumulate(a, g * (a.data > 0.0))

    return _node(out_data, "relu", (a,), backprop)


def softplus(a: Tensor) -> Tensor:
    out_data = np.logaddexp(0.0, a.data)

    def backprop(g):
        _accumulate(a, g * (0.5 * np.tanh(0.5 * a.data) + 0.5))

    return _node(out_data, "softplus", (a,), backprop)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backprop(g):
        _accumulate(a, g / a.data)

    return _node(out_data, "log", (a,), backprop)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backprop(g):
        _accumulate(a, g / (2.0 * out_data))

    return _node(out_data, "sqrt", (a,), backprop)


def square(a: Tensor) -> Tensor:
    out_data = a.data * a.data

    def backprop(g):
        _accumulate(a, g * 2.0 * a.data)

    return _node(out_data, "square", (a,), backprop)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis of a 2-D or batched 3-D tensor."""
    if a.data.ndim not in (2, 3):
        raise _shape_error("softmax", a.shape)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backprop(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        _accumulate(a, out_data * (g - inner))

    return _node(out_data, "softmax", (a,), backprop)


def _swap_last(x: np.ndarray) -> np.ndarray:
    """View with the last two axes swapped; `.T` is the cheap 2-D case."""
    return x.T if x.ndim == 2 else x.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# attention and fused ops
# ---------------------------------------------------------------------------

def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention softmax(q k^T / sqrt(d) + mask) v.

    q, k and v are 2-D, or 3-D with one shared leading batch axis; the
    additive mask broadcasts to the scores' shape (one 2-D mask for all).
    """
    nd = q.data.ndim
    if nd not in (2, 3) or k.data.ndim != nd or v.data.ndim != nd \
            or q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2] \
            or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]:
        raise _shape_error("attention", q.shape, k.shape, v.shape)
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = add(scores, constant(np.broadcast_to(mask, scores.shape)))
    return matmul(softmax(scores), v)


def causal_mask(n: int) -> np.ndarray:
    """Additive mask hiding future positions in self-attention."""
    return np.triu(np.full((n, n), -1e9), k=1)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization with learned (1, d) gain and bias."""
    if x.data.ndim != 2 or not gain.shape == bias.shape == (1, x.shape[1]):
        raise _shape_error("layer_norm", x.shape, gain.shape, bias.shape)
    centered = x.data - x.data.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=1, keepdims=True) + eps)
    normed = centered * inv_std
    out_data = normed * gain.data + bias.data

    def backprop(g):
        gn = g * gain.data
        inner = gn - gn.mean(axis=1, keepdims=True)
        _accumulate(x, inv_std * (inner - normed * (gn * normed).mean(axis=1, keepdims=True)))
        _accumulate(gain, (g * normed).sum(axis=0, keepdims=True))
        _accumulate(bias, g.sum(axis=0, keepdims=True))

    return _node(out_data, "layer_norm", (x, gain, bias), backprop)


def _lstm_gates(x, h, wx, wh, b):
    """lstm_cell's gate activations from its inputs: the sigmoid view of all
    four gates, and the gates (i, f, g, o)."""
    n = wh.shape[0]
    z = x @ wx + h @ wh + b
    # One tanh for all four gates, as sigmoid(v) = 0.5 tanh(v / 2) + 0.5.
    act = np.tanh(np.concatenate([0.5 * z[:, :2 * n], z[:, 2 * n:3 * n], 0.5 * z[:, 3 * n:]], axis=1))
    sig = 0.5 * act + 0.5
    return sig, (sig[:, :n], sig[:, n:2 * n], act[:, 2 * n:3 * n], sig[:, 3 * n:])


def lstm_cell(x: Tensor, hc: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """One LSTM step (Hochreiter & Schmidhuber 1997): x (B, k) and the packed
    state hc = [h | c] (B, 2n) to the new [h | c]. wx (k, 4n), wh (n, 4n) and
    the bias row b (1, 4n) lay the gates out as [input, forget, cell, output].

    The node stores no gate arrays: its backward recomputes them from the
    parents' data, and tanh(c) from the c half of its own output, the same
    expressions on the same arrays, so the gradients are those of a stored
    copy while a taped batch keeps only its [h | c] outputs."""
    n = wh.shape[0]
    if not (x.data.ndim == 2 and hc.shape == (x.shape[0], 2 * n) and wh.shape == (n, 4 * n)
            and wx.shape == (x.shape[1], 4 * n) and b.shape == (1, 4 * n)):
        raise _shape_error("lstm_cell", x.shape, hc.shape, wx.shape, wh.shape, b.shape)
    h, c = hc.data[:, :n], hc.data[:, n:]
    _, (i, f, g, o) = _lstm_gates(x.data, h, wx.data, wh.data, b.data)
    c_new = f * c + i * g
    out_data = np.concatenate([o * np.tanh(c_new), c_new], axis=1)

    def backprop(grad):
        h, c = hc.data[:, :n], hc.data[:, n:]
        sig, (i, f, g, o) = _lstm_gates(x.data, h, wx.data, wh.data, b.data)
        tanh_c = np.tanh(np.ascontiguousarray(out_data[:, n:]))  # contiguous, as in the forward
        gh, gc = grad[:, :n], grad[:, n:]
        dc = gc + gh * o * (1.0 - tanh_c * tanh_c)
        d_act = np.concatenate([dc * g, dc * c, dc * i, gh * tanh_c], axis=1)
        dz = d_act * sig * (1.0 - sig)
        dz[:, 2 * n:3 * n] = d_act[:, 2 * n:3 * n] * (1.0 - g * g)
        _accumulate(x, dz @ wx.data.T)
        _accumulate(wx, x.data.T @ dz)
        _accumulate(wh, h.T @ dz)
        _accumulate(b, dz.sum(axis=0, keepdims=True))
        _accumulate(hc, np.concatenate([dz @ wh.data.T, dc * f], axis=1))

    return _node(out_data, "lstm_cell", (x, hc, wx, wh, b), backprop)


# Lanczos approximation, g=7, 9 coefficients; |abs error| < 1e-10 on (0, 1e4].
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos(z: np.ndarray) -> np.ndarray:
    t = z + _LANCZOS_G - 0.5
    series = np.full_like(z, _LANCZOS_COEFFS[0])
    for k, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series += c / (z + k - 1.0)
    return 0.5 * math.log(2.0 * math.pi) + (z - 0.5) * np.log(t) - t + np.log(series)


def lgamma(a: Tensor) -> Tensor:
    """Lanczos log-gamma of entries >= 0.5; the gradient is the series' exact derivative."""
    out_data = _lanczos(a.data)

    def backprop(g):
        z = a.data
        dens = [z + k for k in range(len(_LANCZOS_COEFFS) - 1)]
        series = _LANCZOS_COEFFS[0] + sum(c / d for c, d in zip(_LANCZOS_COEFFS[1:], dens))
        dseries = -sum(c / (d * d) for c, d in zip(_LANCZOS_COEFFS[1:], dens))
        t = z + _LANCZOS_G - 0.5
        _accumulate(a, g * (np.log(t) + (z - 0.5) / t - 1.0 + dseries / series))

    return _node(out_data, "lgamma", (a,), backprop)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

_CONSUMED = "backward: graph already consumed by an earlier backward; rebuild the forward pass"


def backward(loss: Tensor, params=None):
    """Run reverse-mode accumulation from a scalar loss.

    Populates `.grad` on every leaf the loss depends on, and consumes every
    node taped since the last backward: a later backward through one raises.
    Each taped node drops its gradient, closure and parents as soon as its
    backprop has run, so interior nodes end with `grad` None and a graph
    frees what it no longer needs while the pass runs.
    When a ParameterSet is given, returns {name: gradient array}, with zeros
    for parameters the loss does not depend on.
    """
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._parents is None:
        raise RuntimeError(_CONSUMED)
    if params is not None:
        for p in params.tensors():
            p.grad = None
    tape = [node for node in (r() for r in _tape) if node is not None]
    for node in tape:
        node.grad = None
        for parent in node._parents:
            if parent._parents is None:
                raise RuntimeError(_CONSUMED)
            parent.grad = None
    _tape.clear()
    loss.grad = np.ones_like(loss.data)
    while tape:  # each node is dropped from the tape once its backprop has run
        node = tape.pop()
        if node.grad is not None:  # nodes the loss does not depend on stay None
            node._backprop(node.grad)
        node.grad = node._backprop = node._parents = None
    if params is not None:
        return {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }
    return None

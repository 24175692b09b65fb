"""Dense float64 tensors with a taped computation graph and reverse-mode autodiff.

Every operation checks shapes eagerly and computes its forward value with plain
numpy. When one of its inputs requires a gradient, it also records a closure
that scatters the output adjoint back onto its inputs; an op on constants only
records nothing. Each taped node gets a creation number, and creation order is
a topological order (a Wengert list, Griewank & Walther 2008): `backward`
gathers the loss's own graph and runs its closures in reverse creation order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_creation = itertools.count()  # numbers the taped nodes in the order they are made
_LAYER_NORM_EPS = 1e-5  # added to each row's variance in layer_norm


class ShapeMismatch(ValueError):
    """Operand shapes incompatible for the requested op."""


def _shape_error(op: str, *shapes) -> ShapeMismatch:
    return ShapeMismatch(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")


class Tensor:
    """A node in the computation graph: value, adjoint slot, and provenance."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backprop", "_seq")

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
            node._seq = next(_creation)
            return node
    return Tensor(data, op=op)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g into t's gradient; a tensor that needs no gradient keeps None."""
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x (..., k) @ w (k, m), plus the bias row b (1, m) on every row when given.

    The leading axes of x are flattened to rows, and one (rows, k) @ (k, m)
    product serves them all: values and gradients on (B, t, k) are those on
    its B·t rows bit for bit. The rows are a view of x where its layout allows
    and a copy, kept for the backward, where it does not.
    """
    if not (x.data.ndim >= 2 and w.data.ndim == 2 and x.shape[-1] == w.shape[0]
            and (b is None or b.shape == (1, w.shape[1]))):
        raise _shape_error("matmul", *(t.shape for t in (x, w, b) if t is not None))
    rows = x.data.reshape(-1, w.shape[0])
    out_data = rows @ w.data
    if b is not None:
        out_data += b.data

    def backprop(g):
        g = g.reshape(-1, w.shape[1])
        # An operand that needs no gradient (an input row, a constant) gets no product.
        if x.requires_grad:
            _accumulate(x, (g @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            _accumulate(w, rows.T @ g)
        if b is not None:
            _accumulate(b, g.sum(axis=0, keepdims=True))

    parents = (x, w) if b is None else (x, w, b)
    return _node(out_data.reshape(*x.shape[:-1], w.shape[1]), "matmul", parents, backprop)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _shape_error("add", a.shape, b.shape)
    out_data = a.data + b.data

    def backprop(g):
        _accumulate(a, g)
        _accumulate(b, g)

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


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != a.data.size:
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


def square(a: Tensor) -> Tensor:
    out_data = a.data * a.data

    def backprop(g):
        _accumulate(a, g * 2.0 * a.data)

    return _node(out_data, "square", (a,), backprop)


# ---------------------------------------------------------------------------
# attention and fused ops
# ---------------------------------------------------------------------------

def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., t, heads·n) -> (..., heads, t, n), a view."""
    return x.reshape(*x.shape[:-1], heads, x.shape[-1] // heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of `_split_heads`, into a fresh array of `shape`."""
    return x.swapaxes(-2, -3).reshape(shape)


def _transposed(x: np.ndarray, c: float = 1.0) -> np.ndarray:
    """c * x with its last two axes swapped, as a fresh C-contiguous array."""
    out = np.empty((*x.shape[:-2], x.shape[-1], x.shape[-2]))
    return np.multiply(x.swapaxes(-1, -2), c, out=out)


def _key_major(a: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """a (..., tk, n) @ bt (..., n, tq) into a fresh key-major (tk, ..., tq) array.

    bt is C-contiguous: numpy's matmul into the strided key-major view runs
    about twice as long with a transposed right operand."""
    out = np.empty((a.shape[-2], *a.shape[:-2], bt.shape[-1]))
    np.matmul(a, bt, out=out.transpose(*range(1, a.ndim - 1), 0, a.ndim - 1))
    return out


def _attention_scores(kh, qt, mask) -> np.ndarray:
    """Masked scores (tk, ..., heads, tq) of split k and qt = c * q^T, the
    scaled and transposed split q: the one expression for the forward and for
    the backward that rebuilds the weights."""
    s = _key_major(kh, qt)
    if mask is not None:
        s += mask
    return s


def _head_row_sums(a: np.ndarray, b: np.ndarray, heads: int) -> np.ndarray:
    """Sum of a * b (..., t, heads·n) over each head's n columns, (..., heads, t).

    A product with a ones vector: numpy's sum over a short last axis takes
    several times longer."""
    n = a.shape[-1] // heads
    sums = (a * b).reshape(-1, n) @ np.ones(n)
    return np.ascontiguousarray(sums.reshape(*a.shape[:-1], heads).swapaxes(-1, -2))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1, causal: bool = False) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    q (..., tq, d), k (..., tk, d) and v (..., tk, dv) are 2-D, or 3-D with one
    shared leading batch axis. Head h computes softmax(q_h k_h^T / sqrt(d/heads))
    v_h on the h-th column block of each, and the heads' outputs sit side by
    side in the (..., tq, dv) result. The heads are views of the inputs. With
    `causal`, self-attention with tq == tk, query i sees keys 0..i only: a
    -1e9 added to every later key's score underflows its weight to 0.

    The scores are laid out key-major, (tk, ..., heads, tq), so the softmax's
    max and sum reduce over the leading axis, not over many short rows; the
    scale c = 1/sqrt(d/heads) rides on the transposed copy of q the product
    needs. The node stores no softmax weights: when some input requires a
    gradient it keeps one log-sum-exp per query row, lse (..., heads, tq), and
    its backward rebuilds the weights as exp(s - lse) from q and k, its
    parents, with no max, sum or divide (as FlashAttention-2 does, Dao 2023).
    The softmax Jacobian-vector product takes its row term D = rowsum(dO * O)
    per head from the node's own output O, which equals rowsum(dW * W).
    """
    nd = q.data.ndim
    if nd not in (2, 3) or k.data.ndim != nd or v.data.ndim != nd \
            or q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2] \
            or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2] \
            or heads < 1 or q.shape[-1] % heads or v.shape[-1] % heads \
            or causal and q.shape[-2] != k.shape[-2]:
        raise _shape_error(f"attention(heads={heads}, causal={causal})", q.shape, k.shape, v.shape)
    t = q.shape[-2]
    # Axis orders that move the key axis of key-major weights last, (..., heads,
    # tq, tk), or next to last, (..., heads, tk, tq): `transpose` takes them
    # without np.moveaxis's per-call axis checks (3-5 µs, 4-8 calls per node).
    key_last, key_next_to_last = (*range(1, nd + 1), 0), (*range(1, nd), 0, nd)
    # Key-major, (tk, 1, …, 1, tq): query i does not see key j > i.
    mask = np.tril(np.full((t, t), -1e9), k=-1).reshape(t, *(1,) * (nd - 1), t) if causal else None
    c = 1.0 / math.sqrt(q.shape[-1] // heads)
    w = _attention_scores(_split_heads(k.data, heads), _transposed(_split_heads(q.data, heads), c),
                          mask)
    row_max = w.max(axis=0)
    w -= row_max
    np.exp(w, out=w)
    row_sum = np.add.reduce(w, axis=0)
    # Normalise the (..., heads, tq, dv/heads) product, not the tk-times larger weights.
    out_h = w.transpose(key_last) @ _split_heads(v.data, heads)
    out_h /= row_sum[..., None]
    out_data = _merge_heads(out_h, (*q.shape[:-1], v.shape[-1]))
    if not (q.requires_grad or k.requires_grad or v.requires_grad):
        return _node(out_data, "attention", (q, k, v), None)
    lse = np.log(row_sum, out=row_sum)
    lse += row_max

    def backprop(g):
        kh, vh = _split_heads(k.data, heads), _split_heads(v.data, heads)
        qt = _transposed(_split_heads(q.data, heads), c)
        w = _attention_scores(kh, qt, mask)
        w -= lse
        np.exp(w, out=w)
        gh = _split_heads(g, heads)
        if v.requires_grad:
            _accumulate(v, _merge_heads(w.transpose(key_next_to_last) @ gh, v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        ds = _key_major(vh, _transposed(gh))  # dW
        ds -= _head_row_sums(g, out_data, heads)
        ds *= w  # the gradient of the scores, s = k (c q)^T
        if q.requires_grad:
            dq = _merge_heads(ds.transpose(key_last) @ kh, q.shape)
            dq *= c
            _accumulate(q, dq)
        if k.requires_grad:
            dk = ds.transpose(key_next_to_last) @ qt.swapaxes(-1, -2)
            _accumulate(k, _merge_heads(dk, k.shape))

    return _node(out_data, "attention", (q, k, v), backprop)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last axis of x (..., d), learned (1, d) gain and bias."""
    if x.data.ndim < 2 or not gain.shape == bias.shape == (1, x.shape[-1]):
        raise _shape_error("layer_norm", x.shape, gain.shape, bias.shape)
    d = x.shape[-1]
    rows = x.data.reshape(-1, d)
    # np.add.reduce(...) / d is the arithmetic of .mean, without its dispatch.
    centered = rows - np.add.reduce(rows, axis=1, keepdims=True) / d
    var = np.add.reduce(centered * centered, axis=1, keepdims=True) / d
    var += _LAYER_NORM_EPS
    inv_std = 1.0 / np.sqrt(var, out=var)
    normed = centered
    normed *= inv_std
    out_data = normed * gain.data
    out_data += bias.data

    def backprop(g):
        g = g.reshape(-1, d)
        gn = g * gain.data
        inner = gn - np.add.reduce(gn, axis=1, keepdims=True) / d
        gn *= normed
        row = np.add.reduce(gn, axis=1, keepdims=True) / d
        inner -= normed * row
        inner *= inv_std
        _accumulate(x, inner.reshape(x.shape))
        _accumulate(gain, (g * normed).sum(axis=0, keepdims=True))
        _accumulate(bias, g.sum(axis=0, keepdims=True))

    return _node(out_data.reshape(x.shape), "layer_norm", (x, gain, bias), backprop)


def _lstm_gates(x, h, wx, wh, b, scale):
    """lstm_cell's gate activations from its inputs: the sigmoid view of all
    four gates, and the gates (i, f, g, o). `scale` halves i, f and o's inputs."""
    n = wh.shape[0]
    z = x @ wx
    z += h @ wh
    z += b
    # One tanh for all four gates, as sigmoid(v) = 0.5 tanh(v / 2) + 0.5.
    z *= scale
    act = np.tanh(z, out=z)
    sig = act * 0.5
    sig += 0.5
    return sig, (sig[:, :n], sig[:, n:2 * n], act[:, 2 * n:3 * n], sig[:, 3 * n:])


def lstm_cell(x: Tensor, hc: np.ndarray, wx: Tensor, wh: Tensor, b: Tensor) -> tuple[Tensor, np.ndarray]:
    """One LSTM layer (Hochreiter & Schmidhuber 1997) as one node: x (B, T, k),
    T >= 1, and the packed start state hc = [h | c] (B, 1, 2n) to the node h
    (B, T, n) and the [h | c] after the last position, (B, 1, 2n). wx (k, 4n),
    wh (n, 4n) and the bias row b (1, 4n) lay the gates out as [input, forget,
    cell, output]. Both states are plain arrays and take no gradient.

    The node stores no gate arrays: its backward walks the positions in
    reverse, recomputes their gates and tanh(c) from the forward's arrays, and
    sums the weight gradients in the order a chain of one-step cells did."""
    n = wh.shape[0]
    if not (x.data.ndim == 3 and x.shape[1] >= 1 and hc.shape == (x.shape[0], 1, 2 * n)
            and wx.shape == (x.shape[2], 4 * n) and wh.shape == (n, 4 * n)
            and b.shape == (1, 4 * n)):
        raise _shape_error("lstm_cell", x.shape, hc.shape, wx.shape, wh.shape, b.shape)
    steps = x.shape[1]
    scale = np.full(4 * n, 0.5)
    scale[2 * n:3 * n] = 1.0
    states = np.empty((x.shape[0], steps, 2 * n))
    # The [h | c] rows each position starts from: hc's, then the one before.
    prev = [hc[:, 0]] + [states[:, t] for t in range(steps - 1)]
    for t in range(steps):
        _, (i, f, g, o) = _lstm_gates(x.data[:, t], prev[t][:, :n], wx.data, wh.data, b.data, scale)
        c_new = f * prev[t][:, n:]
        c_new += i * g
        h_new = np.tanh(c_new)
        h_new *= o
        np.concatenate([h_new, c_new], axis=1, out=states[:, t])

    def backprop(grad):
        dx = np.empty(x.shape)
        dwx, dwh, db = np.zeros(wx.shape), np.zeros(wh.shape), np.zeros(b.shape)
        dh = dc_f = 0.0  # what position t + 1 sends back to position t's [h | c]
        for t in reversed(range(steps)):
            x_t, h, c = x.data[:, t], prev[t][:, :n], prev[t][:, n:]
            sig, (i, f, g, o) = _lstm_gates(x_t, h, wx.data, wh.data, b.data, scale)
            tanh_c = np.tanh(np.ascontiguousarray(states[:, t, n:]))  # contiguous, like c_new
            gh = grad[:, t] + dh
            dc = tanh_c * tanh_c
            np.subtract(1.0, dc, out=dc)
            dc *= gh * o
            dc += dc_f
            # dz = d_act * sig * (1 - sig), d_act = [dc g | dc c | dc i | gh tanh_c],
            # but for g, whose tanh derivative is 1 - g^2.
            dz = np.empty((x.shape[0], 4 * n))
            np.multiply(dc, g, out=dz[:, :n])
            np.multiply(dc, c, out=dz[:, n:2 * n])
            np.multiply(dc, i, out=dz[:, 2 * n:3 * n])
            np.multiply(gh, tanh_c, out=dz[:, 3 * n:])
            dg = g * g
            np.subtract(1.0, dg, out=dg)
            dg *= dz[:, 2 * n:3 * n]
            dz *= sig
            dz *= 1.0 - sig  # a fresh array: i, f and o are views of sig
            dz[:, 2 * n:3 * n] = dg
            if x.requires_grad:  # not input rows
                dx[:, t] = dz @ wx.data.T
            dwx += x_t.T @ dz
            dwh += h.T @ dz
            db += dz.sum(axis=0, keepdims=True)
            if t:  # not the start state
                dh, dc_f = dz @ wh.data.T, np.multiply(dc, f, out=dc)
        for parent, d in ((x, dx), (wx, dwx), (wh, dwh), (b, db)):
            _accumulate(parent, d)

    return _node(states[..., :n], "lstm_cell", (x, wx, wh, b), backprop), states[:, -1:]


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


def lanczos_lgamma(z: np.ndarray) -> np.ndarray:
    """Log-gamma of entries >= 0.5 by the Lanczos series, in numpy."""
    t = z + _LANCZOS_G - 0.5
    series = np.full_like(z, _LANCZOS_COEFFS[0])
    for k, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series += c / (z + k - 1.0)
    return 0.5 * math.log(2.0 * math.pi) + (z - 0.5) * np.log(t) - t + np.log(series)


def lgamma(a: Tensor) -> Tensor:
    """Lanczos log-gamma of entries >= 0.5; the gradient is the series' exact derivative."""
    out_data = lanczos_lgamma(a.data)

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

    Populates `.grad` on every leaf the loss depends on. A walk over parents
    gathers the loss's own graph, which runs in reverse creation order and is
    consumed: a later backward through it raises; other graphs stay untouched.
    Each node drops its gradient, closure and parents once its backprop has
    run, so interior nodes end with `grad` None and the graph frees as it goes.
    When a ParameterSet is given, returns {name: gradient array}, with zeros
    for parameters the loss does not depend on.
    """
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward: loss must be scalar, got shape {loss.shape}")
    tape, stack, seen = [], [loss], {id(loss)}  # ids, so the set keeps no node alive
    while stack:
        node = stack.pop()
        if node._parents is None:
            raise RuntimeError(_CONSUMED)
        node.grad = None
        if node._parents:  # taped; a leaf has no parents
            tape.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tape.sort(key=lambda node: node._seq)
    if params is not None:
        for p in params.tensors():
            p.grad = None
    loss.grad = np.ones_like(loss.data)
    while tape:  # each node is dropped from the tape once its backprop has run
        node = tape.pop()
        node._backprop(node.grad)
        node.grad = node._backprop = node._parents = None
    if params is not None:
        return {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }
    return None

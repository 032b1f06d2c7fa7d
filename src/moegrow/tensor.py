"""Minimal reverse-mode autodiff over numpy arrays.

Just enough ops for a decoder-only transformer with routed MLP blocks:
elementwise arithmetic, batched matmul, shape ops, gathers/scatters with
unique indices, softmax/logsumexp, and fused RMSNorm, attention (rotary,
grouped-query scores, causal softmax and context in one op), next-token
cross entropy, gated MLP and expert mix ops with hand-written backwards.
Graphs are built eagerly; ``backward()`` runs one reverse topological pass
and releases each interior node once its gradient has passed to its
parents, so a graph is differentiated once and only the leaves keep a
``.grad``. Operands that are not Tensors (numbers, arrays)
are constants and get no gradient.
Inside ``no_tape()`` ops record nothing, for forward passes nobody
differentiates. Inside ``no_huge_pages()`` numpy asks the kernel for no huge
pages, for the short-lived arrays of a graph.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

try:  # numpy 2; numpy 1 keeps it in numpy.core
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:
    from numpy.core.multiarray import _set_madvise_hugepage

# per thread (and per asyncio task), so a forward-only pass in one thread
# does not drop the tape of training in another
_recording: ContextVar[bool] = ContextVar("recording", default=True)


@contextmanager
def no_tape():
    """Build parentless nodes with no backward closure while active.

    Nothing then keeps an intermediate array alive once the next op has
    consumed it, so a forward pass holds about one layer's activations
    instead of the whole graph. Values are bitwise those of a taped pass.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


@contextmanager
def no_huge_pages():
    """Allocate arrays without advising huge pages while active; usable as a
    decorator.

    numpy advises the kernel to back each array of 4 MiB or more with huge
    pages (madvise MADV_HUGEPAGE). The activations and gradients of a graph
    live for one step and land wherever the heap has room, so the advice
    marks varying stretches of the heap: how much of it ends up on huge
    pages, and how much the allocator hands back and faults in again each
    step, then change from one run to the next, and with them the speed of
    the whole process. The setting is numpy's and process-wide, and only
    advice changes, never a value; leaving restores it.
    """
    previous = _set_madvise_hugepage(False)
    try:
        yield
    finally:
        _set_madvise_hugepage(previous)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad


def _fold_sum_last(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis by pairwise fold-in-half, keeping it as size 1:
    the one fold order that mean_last_folded and rmsnorm share."""
    m = a.shape[-1]
    while m > 1:
        half = m // 2
        if m % 2:
            a = np.concatenate([a[..., :half] + a[..., half : 2 * half], a[..., 2 * half :]], axis=-1)
        else:
            a = a[..., :half] + a[..., half:]
        m = a.shape[-1]
    return a


def _rows(x: np.ndarray) -> np.ndarray:
    """x as a matrix of its last axis, every leading axis flattened into rows."""
    return x.reshape(-1, x.shape[-1])


class Tensor:
    """A node in the computation graph wrapping an ndarray."""

    __slots__ = ("data", "grad", "_parents", "_backward", "_const")
    # an ndarray on the left of an operator defers to the Tensor's reflected
    # method instead of building an object array of Tensors
    __array_ufunc__ = None

    def __init__(self, data, parents: tuple["Tensor", ...] = ()):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = None  # callable(grad) -> tuple of parent grads (None: none)
        self._const = False  # an operand wrapped from a number or array

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # -- graph construction helpers ------------------------------------

    @staticmethod
    def _wrap(other, dtype) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        const = Tensor(np.asarray(other, dtype=dtype))
        const._const = True
        return const

    def _make(self, data, parents, backward) -> "Tensor":
        if not _recording.get():
            return Tensor(data)
        out = Tensor(data, parents)
        out._backward = backward
        return out

    def _binary(self, other: "Tensor", data, grad_self, grad_other) -> "Tensor":
        """Node of a broadcasting binary op. grad_self and grad_other map the
        output gradient to each operand's before unbroadcasting; neither runs
        for a constant operand."""

        def backward(g):
            return (
                None if self._const else _unbroadcast(grad_self(g), self.shape),
                None if other._const else _unbroadcast(grad_other(g), other.shape),
            )

        return self._make(data, (self, other), backward)

    # -- elementwise arithmetic ----------------------------------------

    def __add__(self, other):
        other = self._wrap(other, self.dtype)
        return self._binary(other, self.data + other.data, lambda g: g, lambda g: g)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        other = self._wrap(other, self.dtype)
        return self._binary(other, self.data - other.data, lambda g: g, lambda g: -g)

    def __rsub__(self, other):
        return self._wrap(other, self.dtype) - self

    def __mul__(self, other):
        other = self._wrap(other, self.dtype)
        return self._binary(
            other, self.data * other.data, lambda g: g * other.data, lambda g: g * self.data
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other, self.dtype)
        return self._binary(
            other,
            self.data / other.data,
            lambda g: g / other.data,
            lambda g: -g * self.data / (other.data * other.data),
        )

    def __rtruediv__(self, other):
        return self._wrap(other, self.dtype) / self

    def __pow__(self, exponent: float):
        out_data = self.data**exponent
        return self._make(
            out_data,
            (self,),
            lambda g: (g * exponent * self.data ** (exponent - 1),),
        )

    # -- matmul and shape ops ------------------------------------------

    def __matmul__(self, other):
        other = self._wrap(other, self.dtype)
        a, b = self.data, other.data
        if a.ndim > 2 and b.ndim == 2:
            # a weight shared by every row: the product and each gradient are
            # one 2-D GEMM over the flattened leading axes, not one small
            # GEMM per leading index
            return self._binary(
                other,
                (_rows(a) @ b).reshape(a.shape[:-1] + b.shape[-1:]),
                lambda g: (_rows(g) @ b.T).reshape(a.shape),
                lambda g: _rows(a).T @ _rows(g),
            )
        return self._binary(
            other, a @ b, lambda g: g @ np.swapaxes(b, -1, -2), lambda g: np.swapaxes(a, -1, -2) @ g
        )

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._make(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(self.shape),)
        )

    def transpose(self, axes: tuple[int, ...]):
        inverse = tuple(np.argsort(axes))
        return self._make(
            self.data.transpose(axes), (self,), lambda g: (g.transpose(inverse),)
        )

    def __getitem__(self, index):
        # basic indexing only (ints/slices); selections must not overlap
        def backward(g):
            full = np.zeros_like(self.data)
            full[index] = g
            return (full,)

        return self._make(self.data[index], (self,), backward)

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def mean_last_folded(self) -> "Tensor":
        """Mean over the last axis via pairwise fold-in-half summation.

        The fold order makes the duplication identity hold bitwise: for a
        power-of-two duplication [x; x; ...] every fold adds equal halves,
        so the mean of the widened vector equals the mean of x exactly.
        Keeps the reduced axis as size 1.
        """
        n = self.data.shape[-1]
        out_data = _fold_sum_last(self.data) / np.asarray(n, dtype=self.dtype)

        def backward(g):
            # the fold is a plain sum in a fixed association order, so the
            # derivative w.r.t. every element is exactly 1/n
            return (np.broadcast_to(g / n, self.shape).copy(),)

        return self._make(out_data, (self,), backward)

    # -- nonlinearities ---------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return self._make(out_data, (self,), lambda g: (g * out_data,))

    def log(self):
        return self._make(np.log(self.data), (self,), lambda g: (g / self.data,))

    def sigmoid(self):
        # exp may overflow for large negative inputs; 1/(1+inf) -> 0 is the
        # correct limit, so the overflow warning carries no information.
        with np.errstate(over="ignore"):
            out_data = 1.0 / (1.0 + np.exp(-self.data))
        return self._make(out_data, (self,), lambda g: (g * out_data * (1.0 - out_data),))

    def silu(self):
        return self * self.sigmoid()

    def softmax_last(self):
        e = np.exp(self.data - self.data.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        return self._make(s, (self,), lambda g: ((g - (g * s).sum(axis=-1, keepdims=True)) * s,))

    # -- fused transformer ops ---------------------------------------------
    # Each is one node whose value is bitwise that of the composed ops it
    # replaces; only the gradient's summation order differs.

    def rmsnorm(self, gain: "Tensor", eps: float) -> "Tensor":
        """x * (mean(x * x) + eps) ** -0.5 * gain over the last axis.

        The mean is mean_last_folded's, so duplicating every channel (and
        the gain) a power-of-two number of times leaves each output bitwise
        unchanged: the numeric foundation of exact width growth.
        """
        x, n = self.data, self.data.shape[-1]
        ms = _fold_sum_last(x * x) / np.asarray(n, dtype=self.dtype)
        r = (ms + np.asarray(eps, dtype=self.dtype)) ** -0.5
        xr = x * r

        def backward(g):
            gx = g * gain.data
            # d(r)/dx = -r**3 * x / n, since r = (sum(x * x) / n + eps) ** -0.5
            dot = (gx * x).sum(axis=-1, keepdims=True)
            return r * gx - xr * (r * r * dot / n), _unbroadcast(g * xr, gain.shape)

        return self._make(xr * gain.data, (self, gain), backward)

    def gated_mlp(self, w_gate: "Tensor", w_up: "Tensor", w_down: "Tensor") -> "Tensor":
        """The SwiGLU block (silu(x @ w_gate) * (x @ w_up)) @ w_down, for 2-D
        weight Tensors and an x of two or more axes.

        The node keeps sigmoid(x @ w_gate), its silu and x @ w_up for the
        backward and recomputes their product there; the composed ops keep
        five arrays of that width.
        """
        x = _rows(self.data)
        a = x @ w_gate.data
        u = x @ w_up.data
        # sigmoid in one buffer: exp overflows for very negative inputs, and
        # 1 / (1 + inf) = 0 is the correct limit
        s = np.negative(a)
        with np.errstate(over="ignore"):
            np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        silu = np.multiply(a, s, out=a)
        out_data = ((silu * u) @ w_down.data).reshape(self.shape[:-1] + w_down.shape[-1:])

        def backward(g):
            g = _rows(g)
            d_up = g @ w_down.data.T
            d_gate = d_up * u
            d_up *= silu
            # d silu(a) / da = s + silu(a) * (1 - s)
            d_silu = 1.0 - s
            d_silu *= silu
            d_silu += s
            d_gate *= d_silu
            gx = np.empty(self.shape, dtype=self.dtype)  # written through its rows
            gx_rows = _rows(gx)
            np.matmul(d_gate, w_gate.data.T, out=gx_rows)
            gx_rows += d_up @ w_up.data.T
            return gx, x.T @ d_gate, x.T @ d_up, (silu * u).T @ g

        return self._make(out_data, (self, w_gate, w_up, w_down), backward)

    def logsumexp_last(self):
        m = self.data.max(axis=-1, keepdims=True)
        e = np.exp(self.data - m)
        z = e.sum(axis=-1, keepdims=True)
        out_data = (m + np.log(z))[..., 0]

        def backward(g):
            return (g[..., None] * (e / z),)

        return self._make(out_data, (self,), backward)

    # -- gathers / scatters ------------------------------------------------

    def gather(self, idx: np.ndarray, axis: int = 0):
        """Select rows along `axis` with an integer index array (may repeat)."""
        idx = np.asarray(idx)

        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(np.moveaxis(full, axis, 0), idx, np.moveaxis(g, axis, 0))
            return (full,)

        return self._make(np.take(self.data, idx, axis=axis), (self,), backward)

    def gather_last(self, idx: np.ndarray):
        """take_along_axis on the last axis; indices must be unique per row."""
        idx = np.asarray(idx)

        def backward(g):
            full = np.zeros_like(self.data)
            np.put_along_axis(full, idx, g, axis=-1)
            return (full,)

        return self._make(
            np.take_along_axis(self.data, idx, axis=-1), (self,), backward
        )

    def scatter_last(self, idx: np.ndarray, size: int):
        """Place values at `idx` along a new last axis of width `size`,
        zeros elsewhere; indices must be unique per row."""
        idx = np.asarray(idx)
        out_data = np.zeros(self.data.shape[:-1] + (size,), dtype=self.dtype)
        np.put_along_axis(out_data, idx, self.data, axis=-1)

        def backward(g):
            return (np.take_along_axis(g, idx, axis=-1),)

        return self._make(out_data, (self,), backward)

    def cross_entropy_last(self, targets: np.ndarray):
        """Per-row cross entropy of a logit tensor against integer targets.

        Returns shape `self.shape[:-1]`; gradient is softmax minus one-hot.
        """
        targets = np.asarray(targets)
        m = self.data.max(axis=-1, keepdims=True)
        e = np.exp(self.data - m)
        z = e.sum(axis=-1, keepdims=True)
        lse = (m + np.log(z))[..., 0]
        picked = np.take_along_axis(self.data, targets[..., None], axis=-1)[..., 0]

        def backward(g):
            grad = (e / z) * g[..., None]
            onehot_idx = targets[..., None]
            sub = np.take_along_axis(grad, onehot_idx, axis=-1) - g[..., None]
            np.put_along_axis(grad, onehot_idx, sub, axis=-1)
            return (grad,)

        return self._make(lse - picked, (self,), backward)

    # -- backprop driver ----------------------------------------------------

    @no_huge_pages()
    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients into the ``.grad`` of every reachable leaf.

        An interior node (one with a backward closure) is released as soon as
        its gradient has reached its parents: its ``.grad``, closure and
        parent links are dropped, so the tape is freed as it is consumed and
        a graph is differentiated once. Leaves (parameters, inputs and
        constants) keep their ``.grad``.
        """
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = (
            np.ones_like(self.data)
            if seed is None
            else np.asarray(seed, dtype=self.dtype)
        )
        for node in reversed(order):
            if node._backward is None:
                continue
            grads = () if node.grad is None else node._backward(node.grad)
            for parent, grad in zip(node._parents, grads):
                if grad is None:
                    continue
                if parent.grad is None:
                    parent.grad = grad.copy() if grad.base is not None else grad
                else:
                    parent.grad = parent.grad + grad
            # every consumer of this node has run: release its gradient and
            # whatever its closure saved for the backward
            node.grad, node._backward, node._parents = None, None, ()


def mix(weights: Tensor, outs) -> Tensor:
    """Sum of weights[..., j:j+1] * outs[j], added in order j = 0, 1, ...: the
    gate-weighted sum of expert outputs, as one node.

    Value and gradients are those of the slice, multiply and add ops it
    replaces; their gate gradient differs from this one only by the exact
    zeros each slice adds outside its column. `outs` is consumed one item at
    a time, so without a tape a generator's outputs are freed once added.
    """
    w = weights.data
    recording = _recording.get()
    kept, out_data = [], None
    for j, out in enumerate(outs):
        term = w[..., j : j + 1] * out.data
        if out_data is None:
            out_data = term
        else:
            out_data += term
        if recording:
            kept.append(out)
    outs = kept

    def backward(g):
        gw = np.zeros_like(w)
        for j, out in enumerate(outs):
            gw[..., j] = (g * out.data).sum(axis=-1)
        return (gw, *(g * w[..., j : j + 1] for j in range(len(outs))))

    return weights._make(out_data, (weights, *outs), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, cos: np.ndarray, sin: np.ndarray,
              scale: float, mask: np.ndarray) -> Tensor:
    """Rotary grouped-query attention, as one node.

    q is (batch, seq, heads * head_dim); k and v are (batch, seq, groups *
    head_dim), and the heads of q are ordered group by group, so one key and
    value head serves the heads / groups query heads of its group. cos and sin
    are the (seq, head_dim) rotary tables and mask the additive (seq, seq)
    causal mask; all three are constants. Per head the context is
    softmax(rot(q) @ rot(k).T * scale + mask) @ v, with rot(t) = t * cos +
    [-t[half:], t[:half]] * sin, returned as (batch, seq, heads * head_dim).

    Every value is bitwise that of the rotary, batched matmul and masked
    softmax ops composed on the (batch, group, head, seq, head_dim) layout.
    The node keeps the rotated queries and keys, v and the probabilities.
    """
    batch, seq, q_dim = q.shape
    d = cos.shape[-1]
    groups = k.shape[-1] // d
    per_group = q_dim // k.shape[-1]
    half = d // 2
    # the tables over (seq, group, head, head_dim), the projections' own layout
    cos, sin = cos[:, None, None, :], sin[:, None, None, :]
    scale = np.asarray(scale, dtype=q.dtype)

    def rotary(t: np.ndarray, heads: int) -> np.ndarray:
        # elementwise, so bitwise the same on any layout
        t = t.reshape(batch, seq, groups, heads, d)
        rot = np.concatenate([-t[..., half:], t[..., :half]], axis=-1)
        rot *= sin
        out = t * cos
        out += rot
        return out

    def heads_first(t: np.ndarray) -> np.ndarray:
        return t.transpose(0, 2, 3, 1, 4)

    qr = rotary(q.data, per_group)
    kr = rotary(k.data, 1)
    vh = heads_first(v.data.reshape(batch, seq, groups, 1, d))
    qh, kh = heads_first(qr), heads_first(kr)

    # the softmax runs in place in the score GEMM's output, so it allocates
    # no further array of the scores' size
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    p += mask
    # a max is exact in any order, and numpy reduces a short last axis
    # slowly: take it as the elementwise maxima of the key columns
    row_max = p[..., 0].copy()
    for j in range(1, seq):
        np.maximum(row_max, p[..., j], out=row_max)
    p -= row_max[..., None]
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out_data = (p @ vh).transpose(0, 3, 1, 2, 4).reshape(batch, seq, q_dim)

    def rotary_grad(g: np.ndarray, heads: int) -> np.ndarray:
        # g on (batch, seq, group, head, head_dim); rot's transpose is
        # [g[half:], -g[:half]]
        gs = g * sin
        out = g * cos
        out += np.concatenate([gs[..., half:], -gs[..., :half]], axis=-1)
        return out.reshape(batch, seq, groups * heads * d)

    def backward(g):
        gh = heads_first(g.reshape(batch, seq, groups, per_group, d))
        dv = (p.swapaxes(-1, -2) @ gh).sum(axis=2, keepdims=True)
        ds = gh @ vh.swapaxes(-1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        dq = (ds @ kh).transpose(0, 3, 1, 2, 4)
        dk = (qh.swapaxes(-1, -2) @ ds).sum(axis=2, keepdims=True).transpose(0, 4, 1, 2, 3)
        return (rotary_grad(dq, per_group), rotary_grad(dk, 1),
                dv.transpose(0, 3, 1, 2, 4).reshape(v.shape))

    return q._make(out_data, (q, k, v), backward)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along `axis`; gradient splits back by segment."""
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, bounds, axis=axis))

    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _recording.get():
        return Tensor(data)
    out = Tensor(data, tuple(tensors))
    out._backward = backward
    return out

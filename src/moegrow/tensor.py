"""Minimal reverse-mode autodiff over numpy arrays.

Just enough ops for a decoder-only transformer with routed MLP blocks:
elementwise arithmetic, batched matmul, shape ops, gathers/scatters with
unique indices, softmax/logsumexp, and fused RMSNorm, rotary, causal softmax
and next-token cross entropy ops with hand-written backwards. Graphs are
built eagerly; ``backward()`` runs one reverse topological pass. Operands
that are not Tensors (numbers, arrays) are constants and get no gradient.
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


def _softmax_last(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_last_grad(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    return (g - (g * s).sum(axis=-1, keepdims=True)) * s


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
            # a weight shared by every row: each gradient is one 2-D GEMM over
            # the flattened leading axes, not a batched product summed after
            def rows(x):
                return x.reshape(-1, x.shape[-1])

            return self._binary(
                other, a @ b, lambda g: (rows(g) @ b.T).reshape(a.shape), lambda g: rows(a).T @ rows(g)
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
        s = _softmax_last(self.data)
        return self._make(s, (self,), lambda g: (_softmax_last_grad(g, s),))

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

    def rotary(self, cos: np.ndarray, sin: np.ndarray) -> "Tensor":
        """Rotary position embedding t * cos + rot(t) * sin on the last axis,
        rot(t) = [-t[half:], t[:half]]; cos and sin are constants."""
        t = self.data
        half = t.shape[-1] // 2
        rest = t.shape[-1] - half
        out_data = t * cos + np.concatenate([-t[..., half:], t[..., :half]], axis=-1) * sin

        def backward(g):
            gs = g * sin
            return (g * cos + np.concatenate([gs[..., rest:], -gs[..., :rest]], axis=-1),)

        return self._make(out_data, (self,), backward)

    def causal_softmax(self, scale: float, mask: np.ndarray) -> "Tensor":
        """softmax(x * scale + mask) over the last axis, for attention scores;
        the additive mask (very negative above the diagonal) is a constant."""
        scale = np.asarray(scale, dtype=self.dtype)
        s = _softmax_last(self.data * scale + mask)
        return self._make(s, (self,), lambda g: (_softmax_last_grad(g, s) * scale,))

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
        """Accumulate gradients into every reachable node's ``.grad``."""
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
            if node._backward is None or node.grad is None:
                continue
            for parent, grad in zip(node._parents, node._backward(node.grad)):
                if grad is None:
                    continue
                if parent.grad is None:
                    parent.grad = grad.copy() if grad.base is not None else grad
                else:
                    parent.grad = parent.grad + grad


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

"""Minimal dense-tensor reverse-mode autodiff.

Everything is a rank-2 float64 array: row vectors are (1, d), column vectors
(n, 1), scalars (1, 1). Graphs are built dynamically on a tape and are tiny,
so there is no compilation or fusion; the priority is that every primitive's
gradient is checkable against central finite differences.

Inside `no_grad` only, a tensor may also be a rank-3 stack (B, rows, cols)
of B independent rank-2 operands. Every forward reads rows and columns from
the last two axes, so a stack computes each item with the same numpy call
as the item alone, bit for bit; a rank-3 tensor built while recording raises
`ShapeError`, and no backward ever sees one.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable

import numpy as np

NEG_INF = -math.inf


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class DomainError(ValueError):
    """Input outside a primitive's numeric domain (e.g. log of non-positive)."""


class EmptySupportError(ValueError):
    """Softmax over a fully masked (all -inf) row."""


class NoGradError(ValueError):
    """`backward` called inside `no_grad`, where nothing is recorded."""


_recording = True  # False inside `no_grad`


@contextlib.contextmanager
def no_grad():
    """Forward passes inside record no tape: every result has
    requires_grad=False, no parents and no backward. Nestable; the previous
    state is restored on exit, also when the body raises."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A rank-2 float64 array (or, under `no_grad`, a rank-3 stack) with an
    optional gradient tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2 and (arr.ndim != 3 or _recording):
            raise ShapeError(f"tensors are rank-2 (rank-3 stacks only under "
                             f"no_grad), got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: tuple[Tensor, ...],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor.__new__(Tensor)  # data is rank-2 float64: skip __init__
    out.data, out.grad = data, None
    out.requires_grad = _recording and any(p.requires_grad for p in parents)
    out._parents = parents if out.requires_grad else ()
    out._backward = backward if out.requires_grad else None
    return out


def constant(data) -> Tensor:
    return Tensor(data)


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add g into t.grad, copying g unless the caller just made it. A tensor
    that needs no gradient (a constant) gets none."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if owned else g.copy()
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# primitives

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        _accum(a, g @ bd.T, owned=True)
        # np.dot: the bytes of ad.T @ g, several times faster for one row
        _accum(b, np.dot(ad.T, g), owned=True)

    return _result(ad @ bd, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; (n, d) + (1, d) broadcasts the row vector."""
    if a.shape != b.shape and b.shape != (1, a.shape[-1]):
        raise ShapeError(f"add: {a.shape} + {b.shape}")
    broadcast = a.shape != b.shape

    def backward(g):
        _accum(a, g)
        _accum(b, g.sum(axis=0, keepdims=True) if broadcast else g)

    return _result(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: {a.shape} - {b.shape}")

    def backward(g):
        _accum(a, g)
        _accum(b, -g, owned=True)

    return _result(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; either operand may be a (1, 1) scalar."""
    if (a.shape != b.shape and a.shape[-2:] != (1, 1)
            and b.shape[-2:] != (1, 1)):
        raise ShapeError(f"mul: {a.shape} * {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        ga = g * bd
        gb = g * ad
        if a.shape == (1, 1) and g.shape != (1, 1):
            ga = ga.sum().reshape(1, 1)
        if b.shape == (1, 1) and g.shape != (1, 1):
            gb = gb.sum().reshape(1, 1)
        _accum(a, ga, owned=True)
        _accum(b, gb, owned=True)

    return _result(ad * bd, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        _accum(a, g * s, owned=True)

    return _result(a.data * s, (a,), backward)


def square(a: Tensor) -> Tensor:
    ad = a.data

    def backward(g):
        _accum(a, g * 2.0 * ad, owned=True)

    return _result(ad * ad, (a,), backward)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    ad = a.data

    def backward(g):
        _accum(a, g / ad, owned=True)

    return _result(np.log(ad), (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accum(a, g * out * (1.0 - out), owned=True)

    return _result(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = (a.data > 0.0).astype(np.float64)  # a float mask multiplies faster

    def backward(g):
        _accum(a, g * mask, owned=True)

    return _result(a.data * mask, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - out * out), owned=True)

    return _result(out, (a,), backward)


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax with -inf mask sentinels.

    Masked entries are excluded from the max subtraction and map to exactly 0
    in the output (exp(-inf - m) is 0). A fully masked row is an error. Only
    -inf masks: a NaN or +inf makes its row NaN.
    """
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    if (m == NEG_INF).any():
        raise EmptySupportError("softmax row with all entries masked")
    e = np.exp(x - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        ga = out * (g - dot)
        _accum(a, np.where(x != NEG_INF, ga, 0.0), owned=True)

    return _result(out, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, g.T)

    return _result(np.swapaxes(a.data, -1, -2).copy(), (a,), backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_cols: {a.shape} | {b.shape}")
    na = a.shape[1]

    def backward(g):
        _accum(a, g[:, :na])
        _accum(b, g[:, na:])

    return _result(np.concatenate([a.data, b.data], axis=-1), (a, b), backward)


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    parts = tuple(parts)
    widths = {p.shape[-1] for p in parts}
    if len(widths) != 1:
        raise ShapeError(f"concat_rows: mixed widths {sorted(widths)}")
    offsets = np.cumsum([0] + [p.shape[-2] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[lo:hi])

    return _result(np.concatenate([p.data for p in parts], axis=-2), parts,
                   backward)


def tile_rows(v: Tensor, n: int) -> Tensor:
    """Repeat a (1, d) row vector into an (n, d) matrix."""
    if v.shape[-2] != 1:
        raise ShapeError(f"tile_rows expects a row vector, got {v.shape}")

    def backward(g):
        _accum(v, g.sum(axis=0, keepdims=True), owned=True)

    return _result(np.repeat(v.data, n, axis=-2), (v,), backward)


def mean_rows(a: Tensor) -> Tensor:
    n = a.shape[-2]

    def backward(g):
        _accum(a, np.repeat(g / n, n, axis=0), owned=True)

    return _result(a.data.mean(axis=-2, keepdims=True), (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    shp = a.shape

    def backward(g):
        _accum(a, np.full(shp, g.reshape(())), owned=True)

    return _result(a.data.sum().reshape(1, 1), (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    shp = a.shape
    n = a.data.size

    def backward(g):
        _accum(a, np.full(shp, g.reshape(()) / n), owned=True)

    return _result(a.data.mean().reshape(1, 1), (a,), backward)


def col(a: Tensor, j: int) -> Tensor:
    """Single column slice of a (1, d) row vector, as a (1, 1) scalar."""
    if a.shape[-2] != 1:
        raise ShapeError(f"col expects a row vector, got {a.shape}")
    shp = a.shape

    def backward(g):
        ga = np.zeros(shp)
        ga[0, j] = g.reshape(())
        _accum(a, ga, owned=True)

    return _result(a.data[..., j:j + 1].copy(), (a,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row-wise affine map x @ w + b as one tape node, equal bit for bit to
    add(matmul(x, w), b): the reverse sweep meets it where it met that pair."""
    xd, wd, bd = x.data, w.data, b.data
    if xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"matmul: {xd.shape} @ {wd.shape}")
    if bd.shape not in ((xd.shape[-2], wd.shape[1]), (1, wd.shape[1])):
        raise ShapeError(f"add: {(xd.shape[-2], wd.shape[1])} + {bd.shape}")

    def backward(g):
        _accum(b, g if bd.shape == g.shape else g.sum(axis=0, keepdims=True))
        if x.requires_grad:
            _accum(x, g @ wd.T, owned=True)
        _accum(w, np.dot(xd.T, g), owned=True)  # as in matmul

    return _result(xd @ wd + bd, (x, w, b), backward)


# ---------------------------------------------------------------------------
# reverse pass

def _topo(loss: Tensor) -> list[Tensor]:
    """Interior nodes in depth-first postorder from `loss`, then the leaves,
    which have no backward and skip the stack. Tensors hash by identity."""
    order: list[Tensor] = []
    leaves: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p not in seen and p._parents:
                    stack.append((p, False))
                elif p not in seen:
                    seen.add(p)
                    leaves.append(p)
    return order + leaves


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss: accumulates .grad on every
    reachable tensor that requires one."""
    if not _recording:
        raise NoGradError("backward inside no_grad: the forward recorded no tape")
    if loss.data.size != 1:
        raise ShapeError("backward requires a scalar loss")
    order = _topo(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)

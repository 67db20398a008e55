"""Elementwise tape ops, for tests only: the reference chains that the fused
nodes of `wmplanlab.diffcore` and `wmplanlab.nets` must match bit for bit.

Each op is one `dc.Node` whose backward calls the closed-form vjp of each
needed parent. Losses are built from them the long way, e.g.
sum_(square(sub(x, target))).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from wmplanlab import diffcore as dc


def _node(tape: dc.Tape, value: np.ndarray, op: str,
          parents: tuple[dc.Node, ...], vjps: tuple) -> dc.Node:
    """A node with one vjp per parent, each called only if its parent is
    needed."""
    return dc.Node(tape, value, op, parents, lambda g, needed: [
        vjp(g) if need else None for vjp, need in zip(vjps, needed)])


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: dc.Node, b: dc.Node) -> dc.Node:
    out = a.value + b.value
    return _node(a.tape, out, "add", (a, b),
                 (lambda g: _unbroadcast(g, a.value.shape),
                  lambda g: _unbroadcast(g, b.value.shape)))


def sub(a: dc.Node, b: dc.Node) -> dc.Node:
    out = a.value - b.value
    return _node(a.tape, out, "sub", (a, b),
                 (lambda g: _unbroadcast(g, a.value.shape),
                  lambda g: _unbroadcast(-g, b.value.shape)))


def mul(a: dc.Node, b: dc.Node) -> dc.Node:
    out = a.value * b.value
    return _node(a.tape, out, "mul", (a, b),
                 (lambda g: _unbroadcast(g * b.value, a.value.shape),
                  lambda g: _unbroadcast(g * a.value, b.value.shape)))


def affine(x: dc.Node, W: dc.Node, b: dc.Node) -> dc.Node:
    """x @ W + b for a 1D sample or 2D batch."""
    xv, Wv = x.value, W.value
    out = xv @ Wv + b.value

    def vjp_x(g):
        return Wv @ g if xv.ndim == 1 else g @ Wv.T

    def vjp_w(g):
        return xv[:, None] * g[None, :] if xv.ndim == 1 else xv.T @ g

    def vjp_b(g):
        return g if g.ndim == 1 else g.sum(axis=0)

    return _node(x.tape, out, "affine", (x, W, b), (vjp_x, vjp_w, vjp_b))


def tanh(a: dc.Node) -> dc.Node:
    out = np.tanh(a.value)
    return _node(a.tape, out, "tanh", (a,), (lambda g: g * (1.0 - out * out),))


def square(a: dc.Node) -> dc.Node:
    return _node(a.tape, a.value * a.value, "square", (a,),
                 (lambda g: g * 2.0 * a.value,))


def sum_(a: dc.Node) -> dc.Node:
    shape = a.value.shape
    return _node(a.tape, np.asarray(a.value.sum()), "sum", (a,),
                 (lambda g: np.broadcast_to(g, shape).copy(),))


def concat(parts: Sequence[dc.Node], axis: int = 0) -> dc.Node:
    values = [p.value for p in parts]
    out = np.concatenate(values, axis=axis)
    offsets = np.cumsum([0] + [v.shape[axis] for v in values])

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return vjp

    return _node(parts[0].tape, out, "concat", tuple(parts),
                 tuple(make_vjp(i) for i in range(len(parts))))

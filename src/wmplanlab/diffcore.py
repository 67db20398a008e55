"""Reverse-mode automatic differentiation over dense float64 arrays.

Operations are recorded define-by-run: each `Node` keeps its value, its
parents and one vjp closure per parent, and takes the next index from its
`Tape`. The tape is only that counter and keeps no list of its nodes, so a
tape and everything on it are freed as soon as the caller drops the loss
node. `grad` collects the loss's ancestors by walking `parents` and sweeps
them in reverse index order; creation order is a topological order.

Supported op kinds: matmul, add, sub, mul, tanh, sum, mean, square,
concat, and a fused affine (x @ W + b). The MLPs build their own fused nodes on `Node` directly: op "mlp"
(`nets.mlp_forward_nodes`) and op "wm-step", one whole world-model
transition (`worldmodel.WorldModel.forward_nodes`).

Also houses the SGD and Adam update rules shared by training and planning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NumericFailure(RuntimeError):
    """Raised when NaN/Inf appears during evaluation or backprop."""

    def __init__(self, message: str, trace: list[float] | None = None):
        super().__init__(message)
        self.trace = trace


def tensor(value, *, check: bool = True) -> np.ndarray:
    """Coerce to a read-only float64 array, rejecting NaN/Inf entries."""
    arr = np.array(value, dtype=np.float64)
    if check and not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite")
    arr.flags.writeable = False
    return arr


class Node:
    """One tape entry: cached forward value plus per-parent vjp closures."""

    __slots__ = ("tape", "value", "op", "parents", "vjps", "index")

    def __init__(self, tape: "Tape", value: np.ndarray, op: str,
                 parents: tuple["Node", ...], vjps: tuple[Callable, ...]):
        self.tape = tape
        self.value = value
        self.op = op
        self.parents = parents
        self.vjps = vjps
        self.index = tape.count
        tape.count += 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


class Tape:
    """A single-threaded recording of one forward computation: hands out
    node indices in creation order and holds no reference to its nodes."""

    def __init__(self):
        self.count = 0

    def leaf(self, value, op: str = "leaf") -> Node:
        return Node(self, tensor(value), op, (), ())

    def leaves(self, value) -> list[Node]:
        """One leaf per row of `value`, validated and copied once as a whole."""
        return [Node(self, row, "leaf", (), ()) for row in tensor(value)]

    def constant(self, value) -> Node:
        return Node(self, tensor(value), "const", (), ())


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


def add(a: Node, b: Node) -> Node:
    out = a.value + b.value
    return Node(a.tape, out, "add", (a, b),
                (lambda g: _unbroadcast(g, a.value.shape),
                 lambda g: _unbroadcast(g, b.value.shape)))


def sub(a: Node, b: Node) -> Node:
    out = a.value - b.value
    return Node(a.tape, out, "sub", (a, b),
                (lambda g: _unbroadcast(g, a.value.shape),
                 lambda g: _unbroadcast(-g, b.value.shape)))


def mul(a: Node, b: Node) -> Node:
    out = a.value * b.value
    return Node(a.tape, out, "mul", (a, b),
                (lambda g: _unbroadcast(g * b.value, a.value.shape),
                 lambda g: _unbroadcast(g * a.value, b.value.shape)))


def matmul(a: Node, b: Node) -> Node:
    """Matrix product for 2D@2D, 1D@2D and 2D@1D operands."""
    av, bv = a.value, b.value
    out = av @ bv

    def vjp_a(g):
        if av.ndim == 1:           # (n,) @ (n,k) -> (k,)
            return bv @ g
        if bv.ndim == 1:           # (m,n) @ (n,) -> (m,)
            return g[:, None] * bv[None, :]
        return g @ bv.T

    def vjp_b(g):
        if av.ndim == 1:
            return av[:, None] * g[None, :]
        return av.T @ g

    return Node(a.tape, out, "matmul", (a, b), (vjp_a, vjp_b))


def affine(x: Node, W: Node, b: Node) -> Node:
    """Fused x @ W + b for a 1D sample or 2D batch (the MLP hot path)."""
    xv, Wv = x.value, W.value
    out = xv @ Wv + b.value

    def vjp_x(g):
        return Wv @ g if xv.ndim == 1 else g @ Wv.T

    def vjp_w(g):
        return xv[:, None] * g[None, :] if xv.ndim == 1 else xv.T @ g

    def vjp_b(g):
        return g if g.ndim == 1 else g.sum(axis=0)

    return Node(x.tape, out, "affine", (x, W, b), (vjp_x, vjp_w, vjp_b))


def tanh(a: Node) -> Node:
    out = np.tanh(a.value)
    return Node(a.tape, out, "tanh", (a,), (lambda g: g * (1.0 - out * out),))


def square(a: Node) -> Node:
    return Node(a.tape, a.value * a.value, "square", (a,),
                (lambda g: g * 2.0 * a.value,))


def sum_(a: Node) -> Node:
    shape = a.value.shape
    return Node(a.tape, np.asarray(a.value.sum()), "sum", (a,),
                (lambda g: np.broadcast_to(g, shape).copy(),))


def mean(a: Node) -> Node:
    n = a.value.size
    shape = a.value.shape
    return Node(a.tape, np.asarray(a.value.mean()), "mean", (a,),
                (lambda g: np.broadcast_to(g / n, shape).copy(),))


def concat(parts: Sequence[Node], axis: int = 0) -> Node:
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

    return Node(parts[0].tape, out, "concat", tuple(parts),
                tuple(make_vjp(i) for i in range(len(parts))))


def sumsq(a: Node) -> Node:
    """Squared L2 norm of all entries; the workhorse of every loss."""
    return sum_(square(a))


def grad(loss: Node, wrt: Sequence[Node]) -> list[np.ndarray]:
    """Gradient of a scalar `loss` node with respect to each node in `wrt`.

    Nodes not on a path to the loss receive a zero gradient. Raises
    NumericFailure (naming the op kind) if NaN appears during the sweep,
    and ValueError if an ancestor of the loss lives on another tape.
    """
    if loss.value.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    tape = loss.tape
    seen = {loss}
    stack = [loss]
    while stack:
        for parent in stack.pop().parents:
            if parent not in seen:
                if parent.tape is not tape:
                    raise ValueError(f"op '{parent.op}' belongs to another tape "
                                     "than the loss")
                seen.add(parent)
                stack.append(parent)
    nodes = sorted(seen, key=lambda node: node.index)
    # forward-reachability from the wrt set: gradients only need to flow
    # into ancestors of the loss that a wrt node can actually reach
    needed = set(wrt)
    for node in nodes:
        if not needed.isdisjoint(node.parents):
            needed.add(node)
    grads: dict[Node, np.ndarray] = {loss: np.asarray(1.0)}
    for node in reversed(nodes):
        g = grads.get(node)
        if g is None:
            continue
        # a single reduction: the sum is non-finite iff any entry is NaN/Inf
        if not np.isfinite(g.sum()):
            raise NumericFailure(f"NaN in backward pass at op '{node.op}'")
        for parent, vjp in zip(node.parents, node.vjps):
            if parent in needed:
                contrib = vjp(g)
                acc = grads.get(parent)
                grads[parent] = contrib if acc is None else acc + contrib
    return [np.asarray(grads[w], dtype=np.float64) if w in grads
            else np.zeros_like(w.value) for w in wrt]


@dataclass
class AdamState:
    """Adam moment estimates for one parameter tensor."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros(cls, shape, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), 0, beta1, beta2, eps)


def sgd_step(params: np.ndarray, grads: np.ndarray, eta: float) -> np.ndarray:
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch {params.shape} vs {grads.shape}")
    if eta <= 0:
        raise ValueError("step size must be positive")
    return params - eta * grads


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              eta: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    if params.shape != grads.shape or state.m.shape != params.shape:
        raise ValueError("parameter/gradient/state shape mismatch")
    if eta <= 0:
        raise ValueError("step size must be positive")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_params = params - eta * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params, AdamState(m, v, t, state.beta1, state.beta2, state.eps)

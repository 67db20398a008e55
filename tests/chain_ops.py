"""Elementwise tape ops, for tests only: the reference chains that the
lab's gradients must match bit for bit. Those are the fused "wm-step" node
and the "sq-dist" node of the per-step GBP rollout (`reference_rollout`),
which GBP's "wm-rollout" node in turn must match, and the direct kernel
calls of `worldmodel.step_loss_grad`.

Each op is one `dc.Node` whose backward calls the closed-form vjp of each
parent. Losses are built from them the long way, e.g.
sum_(square(sub(x, target))), and MLP weights enter as "param" nodes
(`lift_params`), so the tape differentiates them too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from reference_rollout import cast
from wmplanlab import diffcore as dc


def _node(tape: dc.Tape, value: np.ndarray, op: str,
          parents: tuple[dc.Node, ...], vjps: tuple) -> dc.Node:
    """A node with one vjp per parent."""
    return dc.Node(tape, value, op, parents,
                   lambda g: [vjp(g) for vjp in vjps])


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


# --- the reference chains ----------------------------------------------------


def lift_params(tape: dc.Tape, weights: list[np.ndarray]) -> list[dc.Node]:
    """Put parameter tensors on a tape as input nodes, in their dtype,
    without copying."""
    return [dc.Node(tape, np.asarray(w), "param") for w in weights]


def chain_mlp(params: list[dc.Node], x: dc.Node) -> dc.Node:
    """The MLP as one affine node per layer and one tanh node per hidden
    layer."""
    n_layers = len(params) // 2
    for i in range(n_layers):
        x = affine(x, params[2 * i], params[2 * i + 1])
        if i < n_layers - 1:
            x = tanh(x)
    return x


def chain_step(f, params: list[dc.Node], z: dc.Node, a: dc.Node) -> dc.Node:
    """One world-model transition as concat -> MLP chain -> add."""
    out = chain_mlp(params, concat([z, a], axis=z.value.ndim - 1))
    return add(z, out)


def chain_sq_dist(xs, targets, weights, scale=1.0) -> dc.Node:
    """`reference_rollout.sq_dist` as a sum over i of
    mul(sum_(square(sub(x_i, target_i))), w_i), times the scale; each
    target in the dtype of its x."""
    tape = xs[0].tape
    total = None
    for x, t, w in zip(xs, targets, weights, strict=True):
        target = dc.Node(tape, dc.tensor(t).astype(x.value.dtype, copy=False),
                         "const")
        term = mul(sum_(square(sub(x, target))), tape.constant(w))
        total = term if total is None else add(total, term)
    return mul(total, tape.constant(scale))


def chain_step_loss_grad(f, Z, A, target, scale, dx, params):
    """`worldmodel.step_loss_grad` on the tape: the one-step loss as
    `chain_step`, then sub -> square -> sum -> times the scale,
    differentiated by `dc.grad`; the weight gradients are copied into
    `params` when it is given. Like the fused call, it computes in the
    dtype of `f`'s weights: the inputs, the target and the scale are
    checked, then cast to it, and the loss meets `dc.grad`'s float64 seed
    through a `cast` node, so a float32 model's chain runs in float32 from
    the loss down and returns float32 input gradients."""
    dtype = f.weights[0].dtype
    tape = dc.Tape()

    def node(value, op):
        return dc.Node(tape, dc.tensor(value).astype(dtype, copy=False), op)

    weights = lift_params(tape, f.weights)
    z, a = node(Z, "leaf"), node(A, "leaf")
    err = sub(chain_step(f, weights, z, a), node(target, "const"))
    loss = cast(mul(sum_(square(err)), node(scale, "const")))
    wrt = ([z, a] if dx else []) + (weights if params is not None else [])
    grads = dc.grad(loss, wrt)
    gz, ga = (g.astype(dtype) for g in grads[:2]) if dx else (None, None)
    if params is not None:
        for out, g in zip(params, grads[-len(weights):], strict=True):
            out[...] = g
    return float(loss.value), gz, ga

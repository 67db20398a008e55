"""Elementwise tape ops, for tests only: the reference chains that the
lab's gradients must match bit for bit. Those are the fused "wm-step" node
and the "sq-dist" node of the per-step GBP rollout (`reference_rollout`),
which GBP's "wm-rollout" node in turn must match, and the direct kernel
calls of `worldmodel.step_loss_grad` and `initnet.loss_grad`.

Each op is one `dc.Node` whose backward calls the closed-form vjp of each
needed parent. Losses are built from them the long way, e.g.
sum_(square(sub(x, target))), and MLP weights enter as "param" nodes
(`lift_params`), so the tape differentiates them too.
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


# --- the reference chains ----------------------------------------------------


def lift_params(tape: dc.Tape, weights: list[np.ndarray]) -> list[dc.Node]:
    """Put parameter tensors on a tape as input nodes, without copying."""
    return [dc.Node(tape, np.asarray(w, dtype=np.float64), "param")
            for w in weights]


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
    return add(z, out) if f.residual else out


def chain_sq_dist(xs, targets, weights, scale=1.0) -> dc.Node:
    """`reference_rollout.sq_dist` as a sum over i of
    mul(sum_(square(sub(x_i, target_i))), w_i), times the scale."""
    tape = xs[0].tape
    total = None
    for x, t, w in zip(xs, targets, weights, strict=True):
        term = mul(sum_(square(sub(x, tape.constant(t)))), tape.constant(w))
        total = term if total is None else add(total, term)
    return mul(total, tape.constant(scale))


def chain_bounded_sq_dist(out: dc.Node, target, a_max: float) -> dc.Node:
    """The init net's loss, ||a_max * tanh(out) - target||^2."""
    tape = out.tape
    pred = mul(tanh(out), tape.constant(a_max))
    return sum_(square(sub(pred, tape.constant(target))))


def chain_step_loss_grad(f, Z, A, target, scale, dx, params):
    """`worldmodel.step_loss_grad` on the tape: the one-step loss through
    `chain_step` and `chain_sq_dist`, differentiated by `dc.grad`."""
    tape = dc.Tape()
    weights = lift_params(tape, f.weights)
    z, a = tape.leaf(Z), tape.leaf(A)
    loss = chain_sq_dist([chain_step(f, weights, z, a)], [target], [1.0], scale)
    grads = dc.grad(loss, ([z, a] if dx else []) + (weights if params else []))
    gz, ga = grads[:2] if dx else (None, None)
    gweights = grads[-len(weights):] if params else [None] * len(weights)
    return float(loss.value), gz, ga, gweights


def chain_initnet_loss_grad(net, x, target):
    """`initnet.loss_grad` on the tape: `chain_mlp` under
    `chain_bounded_sq_dist`, differentiated by `dc.grad`."""
    tape = dc.Tape()
    weights = lift_params(tape, net.weights)
    loss = chain_bounded_sq_dist(chain_mlp(weights, tape.leaf(x)), target,
                                 net.a_max)
    return float(loss.value), dc.grad(loss, weights)

"""Reverse-mode automatic differentiation over dense float64 arrays.

Operations are recorded define-by-run: each `Node` keeps its value, its
parents and one `backward` function, and takes the next index from its
`Tape`. The tape is only that counter and keeps no list of its nodes, so a
tape and everything on it are freed as soon as the caller drops the loss
node. `grad` collects the loss's ancestors by walking `parents` and sweeps
them in reverse index order; creation order is a topological order.

`backward(g, needed)` maps the output gradient g to one gradient per
parent. `needed` flags the parents a gradient must reach (PyTorch's
`needs_input_grad`); the others may get None, and a node with no flag set
is never asked.

Only gradient-based planning (`planners.gbp`) uses the tape: it is the one
gradient taken through an H-step rollout. Every other gradient is one MLP
forward and one `nets.mlp_backward` called directly
(`worldmodel.step_loss_grad`, `initnet.loss_grad`). GBP's tape holds three
nodes per iteration: a "leaf" holding the whole (H, d_a) action array, a
"const" start latent, and one "wm-rollout" node whose value is the goal
loss and whose backward is a closed-form sweep back through time over all
H model steps (`worldmodel.rollout_nodes`).

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


def tensor(value) -> np.ndarray:
    """Coerce to a read-only float64 array, rejecting NaN/Inf entries."""
    arr = np.array(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite")
    arr.flags.writeable = False
    return arr


class Node:
    """One tape entry: forward value, parents and `backward`; inputs
    ("leaf", "const") have neither parents nor backward."""

    __slots__ = ("tape", "value", "op", "parents", "backward", "index")

    def __init__(self, tape: "Tape", value: np.ndarray, op: str,
                 parents: tuple["Node", ...] = (),
                 backward: Callable | None = None):
        self.tape = tape
        self.value = value
        self.op = op
        self.parents = parents
        self.backward = backward
        self.index = tape.count
        tape.count += 1

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


class Tape:
    """A single-threaded recording of one forward computation: hands out
    node indices in creation order and holds no reference to its nodes."""

    def __init__(self):
        self.count = 0

    def leaf(self, value) -> Node:
        return Node(self, tensor(value), "leaf")

    def constant(self, value) -> Node:
        return Node(self, tensor(value), "const")


def grad(loss: Node, wrt: Sequence[Node]) -> list[np.ndarray]:
    """Gradient of a scalar `loss` node with respect to each node in `wrt`.

    Nodes not on a path to the loss receive a zero gradient. A node's
    `backward` runs once, flagging the parents that a `wrt` node reaches, and
    not at all if none is; contributions sum in sweep order, then parent
    order. Raises NumericFailure (naming the op kind) if NaN appears during
    the sweep, and ValueError if an ancestor of the loss lives on another tape.
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
        mask = tuple(parent in needed for parent in node.parents)
        if not any(mask):
            continue
        for parent, need, contrib in zip(node.parents, mask,
                                         node.backward(g, mask), strict=True):
            if need:
                acc = grads.get(parent)
                grads[parent] = contrib if acc is None else acc + contrib
    return [np.asarray(grads[w], dtype=np.float64) if w in grads
            else np.zeros_like(w.value) for w in wrt]


# Adam's decay rates and denominator guard, the defaults of Kingma & Ba (2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moment estimates for one parameter tensor."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape))


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
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    new_params = params - eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(m, v, t)

"""Reverse-mode automatic differentiation over dense arrays.

Operations are recorded define-by-run: each `Node` keeps its value, its
parents and one `backward` function, and takes the next index from its
`Tape`. The tape is only that counter and keeps no list of its nodes, so a
tape and everything on it are freed as soon as the caller drops the loss
node. `grad` collects the loss's ancestors by walking `parents` and sweeps
them in reverse index order; creation order is a topological order.

`backward(g)` maps the output gradient g to one gradient per parent, and
every ancestor of the loss gets its gradient.

Only gradient-based planning (`planners.gbp`) uses the tape, for the one
gradient taken through an H-step rollout: each iteration puts the action
leaf and one "wm-rollout" node, its only child, on it
(`worldmodel.rollout_nodes`). The actions are float64 (`tensor`); the node
computes in float32 on GBP's float32 copy of the model, in buffers the plan
makes once (`worldmodel.RolloutWorkspace`), not once per rollout, and
`grad` returns every gradient as float64. A node's backward reads those
buffers, so `grad` must run before the plan's next rollout. Every other gradient is
one `worldmodel.mlp_forward` and one `worldmodel.mlp_backward` called
directly (`worldmodel.step_loss_grad`).

Also houses the SGD and Adam update rules shared by training and planning.
Both update their parameters in place and return nothing. Adam also
advances its `AdamState` in place and writes its intermediates into two
scratch buffers that the state makes once per tensor, so an Adam step
allocates no array. Each caller steps one float64 tensor: a training step
the one contiguous vector that holds every master weight of the model being
trained (`worldmodel.FlatAdam`), GBP its (H, d_a) action array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    Nodes not on a path to the loss receive a zero gradient. Each ancestor's
    `backward` runs once, and contributions sum in sweep order, then parent
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
    # every child of a node comes later in creation order, so its gradient
    # is whole when the reverse sweep reaches it
    grads: dict[Node, np.ndarray] = {loss: np.asarray(1.0)}
    for node in sorted(seen, key=lambda node: node.index, reverse=True):
        g = grads[node]
        # a single reduction: the sum is non-finite iff any entry is NaN/Inf
        if not np.isfinite(g.sum()):
            raise NumericFailure(f"NaN in backward pass at op '{node.op}'")
        if node.parents:
            for parent, contrib in zip(node.parents, node.backward(g),
                                       strict=True):
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
    """Adam's moment estimates and step count for one parameter tensor, and
    the two scratch buffers of its shape that `adam_step` writes its
    intermediates into, made once here."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False,
                                                    compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape))


def sgd_step(params: np.ndarray, grads: np.ndarray, eta: float) -> None:
    """params <- params - eta * grads, in place. A shape mismatch or a step
    size <= 0 is a ValueError that changes nothing."""
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch {params.shape} vs {grads.shape}")
    if eta <= 0:
        raise ValueError("step size must be positive")
    np.subtract(params, eta * grads, out=params)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              eta: float) -> None:
    """One bias-corrected Adam update of `params`, in place.

    `state.m`, `state.v` and `state.t` advance in place too, and every
    intermediate goes into the state's scratch buffers, so a step makes no
    array of the tensor's size. The expressions and their order are those
    of the textbook update, hence so are the bits:
    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g, then
    params - (eta m_hat) / (sqrt(v_hat) + eps). A shape mismatch or a step
    size <= 0 is a ValueError that changes nothing."""
    if not params.shape == grads.shape == state.m.shape == state.v.shape:
        raise ValueError("parameter/gradient/state shape mismatch")
    if eta <= 0:
        raise ValueError("step size must be positive")
    state.t += 1
    m, v, (s, r) = state.m, state.v, state.scratch
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(grads, 1.0 - ADAM_BETA1, out=s)
    np.add(m, s, out=m)
    np.multiply(grads, 1.0 - ADAM_BETA2, out=s)
    np.multiply(s, grads, out=s)
    np.multiply(v, ADAM_BETA2, out=v)
    np.add(v, s, out=v)
    np.divide(m, 1.0 - ADAM_BETA1 ** state.t, out=s)  # m_hat
    np.divide(v, 1.0 - ADAM_BETA2 ** state.t, out=r)  # v_hat
    np.multiply(s, eta, out=s)
    np.sqrt(r, out=r)
    np.add(r, ADAM_EPS, out=r)
    np.divide(s, r, out=s)
    np.subtract(params, s, out=params)

"""GBP's differentiable rollout built one tape node per model step, the
reference the fused "wm-rollout" node (`worldmodel.rollout_nodes`) must
match bit for bit: one leaf per action row, one "wm-step" node per
transition (`WorldModel.forward_nodes`) and one "sq-dist" goal loss. It
computes in the dtype of the model's weights, as the node does: the start
latent, the actions and the goal are cast to it, and each scored latent
meets the loss through a "cast" node that rounds the loss's gradient to
that dtype, where the node stores it."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from wmplanlab import diffcore as dc


def leaves(tape: dc.Tape, value, dtype=np.float64) -> list[dc.Node]:
    """One leaf per row of `value` in `dtype`, validated and copied once as
    a whole."""
    return [dc.Node(tape, row, "leaf")
            for row in dc.tensor(value).astype(dtype, copy=False)]


def sq_dist(xs: Sequence[dc.Node], targets, weights, scale: float = 1.0) -> dc.Node:
    """One node (op "sq-dist") with value scale * sum_i weights[i] * ||xs[i] -
    targets[i]||^2, summed left to right, and closed-form gradients. Targets
    are constants and pass through `dc.tensor`, so a non-finite one is a
    ValueError; each is cast to the dtype of its x."""
    ds = [x.value - dc.tensor(t).astype(x.value.dtype, copy=False)
          for x, t in zip(xs, targets, strict=True)]
    total = 0.0
    for d, w in zip(ds, weights, strict=True):
        total = total + (d * d).sum() * w

    def backward(g):
        return [g * scale * w * 2.0 * d for d, w in zip(ds, weights)]

    return dc.Node(xs[0].tape, np.asarray(total * scale), "sq-dist", tuple(xs),
                   backward)


def step_nodes(f, z1: dc.Node, action_nodes: list[dc.Node]) -> list[dc.Node]:
    """The latents z_2 .. z_{H+1}, one "wm-step" node each."""
    zs = []
    z = z1
    for t, a in enumerate(action_nodes):
        z = f.forward_nodes(z, a)
        if not np.isfinite(z.value.sum()):
            raise dc.NumericFailure(f"non-finite latent at rollout step {t + 1}")
        zs.append(z)
    return zs


def cast(x: dc.Node) -> dc.Node:
    """`x` as it is, with a backward that rounds the gradient to x's dtype."""
    return dc.Node(x.tape, x.value, "cast", (x,),
                   lambda g: [g.astype(x.value.dtype, copy=False)])


def goal_loss(zs: list[dc.Node], z_goal, weights) -> dc.Node:
    """The final-state distance (weights None) or the weighted mean over all
    latents, with weights that sum to one."""
    if weights is None:
        return sq_dist([cast(zs[-1])], [z_goal], [1.0])
    return sq_dist([cast(z) for z in zs], [z_goal] * len(zs), weights,
                   1.0 / len(zs))


def rollout_nodes(work, a: dc.Node) -> dc.Node:
    """A drop-in for `worldmodel.rollout_nodes` that builds the per-step
    graph on the same tape, from a constant start latent and one leaf per
    row of `a`. It reads the model, the start latent, the goal and the goal
    loss's weights of the workspace `work` and none of its buffers. Its
    value is that graph's loss, its only parent `a`, and its backward is
    `dc.grad` over the graph, the action rows' gradients stacked."""
    f = work.f
    dtype = f.weights[0].dtype
    rows = leaves(a.tape, a.value, dtype)
    start = dc.Node(a.tape, dc.tensor(work.z1).astype(dtype, copy=False), "const")
    loss = goal_loss(step_nodes(f, start, rows), work.z_goal, work.weights)

    def backward(g):
        return (g * np.stack(dc.grad(loss, rows)),)

    return dc.Node(a.tape, loss.value, "ref-rollout", (a,), backward)

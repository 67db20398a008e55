"""GBP's differentiable rollout built one tape node per model step, the
reference the fused "wm-rollout" node (`worldmodel.rollout_nodes`) must
match bit for bit: one leaf per action row, one "wm-step" node per
transition (`WorldModel.forward_nodes`) and one "sq-dist" goal loss."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from wmplanlab import diffcore as dc


def leaves(tape: dc.Tape, value) -> list[dc.Node]:
    """One leaf per row of `value`, validated and copied once as a whole."""
    return [dc.Node(tape, row, "leaf") for row in dc.tensor(value)]


def sq_dist(xs: Sequence[dc.Node], targets, weights, scale: float = 1.0) -> dc.Node:
    """One node (op "sq-dist") with value scale * sum_i weights[i] * ||xs[i] -
    targets[i]||^2, summed left to right, and closed-form gradients. Targets
    are constants and pass through `dc.tensor`, so a non-finite one is a
    ValueError."""
    ds = [x.value - dc.tensor(t) for x, t in zip(xs, targets, strict=True)]
    total = 0.0
    for d, w in zip(ds, weights, strict=True):
        total = total + (d * d).sum() * w

    def backward(g, needed):
        return [g * scale * w * 2.0 * d if need else None
                for d, w, need in zip(ds, weights, needed)]

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


def goal_loss(zs: list[dc.Node], z_goal, weights) -> dc.Node:
    """The final-state distance (weights None) or the weighted mean over all
    latents, with weights that sum to one."""
    if weights is None:
        return sq_dist(zs[-1:], [z_goal], [1.0])
    return sq_dist(zs, [z_goal] * len(zs), weights, 1.0 / len(zs))


def rollout_nodes(f, z1: dc.Node, a: dc.Node, z_goal, weights) -> dc.Node:
    """A drop-in for `worldmodel.rollout_nodes` that builds the per-step
    graph on the same tape, from one leaf per row of `a`. Its value is that
    graph's loss, and its backward is `dc.grad` over it, the action rows'
    gradients stacked. `z1` is a constant and gets no gradient."""
    rows = leaves(a.tape, a.value)
    loss = goal_loss(step_nodes(f, z1, rows), z_goal, weights)

    def backward(g, needed):
        return None, g * np.stack(dc.grad(loss, rows))

    return dc.Node(a.tape, loss.value, "ref-rollout", (z1, a), backward)

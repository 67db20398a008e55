"""Action-sequence initialization network g: (z_1, z_goal) -> H actions.

Trained by supervised regression onto expert action sequences; a final
tanh scaled by a_max keeps proposals inside the action bounds. Used as an
alternative to Gaussian initialization for gradient-based planning: a
`planners.PlanConfig` with the "initnet" init holds the loaded net.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from . import nets, tensorio
from .data import Dataset, sample_window
from .rng import generator


@dataclass
class InitNet:
    weights: list[np.ndarray]
    d_z: int
    d_a: int
    horizon: int
    a_max: float
    hidden: tuple[int, ...] = (128, 128)


def make_initnet(d_z: int, d_a: int, horizon: int, a_max: float,
                 hidden: tuple[int, ...] = (128, 128), seed: int = 0) -> InitNet:
    sizes = (2 * d_z,) + tuple(hidden) + (horizon * d_a,)
    return InitNet(nets.init_mlp(sizes, seed), d_z, d_a, horizon, a_max,
                   tuple(hidden))


def init_actions(g: InitNet, z1: np.ndarray, z_goal: np.ndarray) -> np.ndarray:
    """Deterministic forward pass, reshaped to (H, d_a)."""
    z1 = np.asarray(z1, dtype=np.float64)
    z_goal = np.asarray(z_goal, dtype=np.float64)
    if z1.shape != (g.d_z,) or z_goal.shape != (g.d_z,):
        raise ValueError(f"latent dims must be ({g.d_z},)")
    x = np.concatenate([z1, z_goal])
    out = g.a_max * np.tanh(nets.mlp_forward(g.weights, x)[0])
    return out.reshape(g.horizon, g.d_a)


@dataclass
class InitTrainResult:
    net: InitNet
    losses: list[float] = field(default_factory=list)


def loss_grad(net: InitNet, x: np.ndarray, target: np.ndarray):
    """(loss, weight gradients) of ||a_max * tanh(mlp(x)) - target||^2, with
    the expressions and order of a tanh, mul, sub, square and sum chain on
    the tape (`tests/chain_ops.py`), so the bits are too. A non-finite x or
    target raises ValueError, a non-finite gradient NumericFailure."""
    out, inputs = nets.mlp_forward(net.weights, dc.tensor(x))
    t = np.tanh(out)
    d = t * net.a_max - dc.tensor(target)
    g = 2.0 * d * net.a_max * (1.0 - t * t)
    _, grads = nets.mlp_backward(net.weights, inputs, g, False, True)
    if not all(np.isfinite(grad.sum()) for grad in grads):
        raise dc.NumericFailure("NaN in the backward pass of the init net loss")
    return float((d * d).sum()), grads


def train_initnet(data: Dataset, H: int, iterations: int | None = None,
                  lr: float = 0.02, seed: int = 0,
                  a_max: float | None = None) -> InitTrainResult:
    """Regress (z_1, z_{H+1}) onto the expert action sequence, one plain
    gradient step per sampled trajectory window.

    iterations defaults to one epoch over the trajectories. a_max defaults
    to the largest action magnitude in the data.
    """
    if data.latents is None or not len(data):
        raise ValueError("need an encoded dataset of one trajectory or more")
    d_z, d_a = data.latents.shape[2], data.actions.shape[2]
    if a_max is None:
        a_max = float(np.abs(data.actions).max())
    net = make_initnet(d_z, d_a, H, a_max, seed=seed)
    n = iterations if iterations is not None else len(data)
    order = []
    epoch = 0
    while len(order) < n:
        order.extend(generator(seed, "order", epoch).permutation(len(data)))
        epoch += 1
    result = InitTrainResult(net)
    for i in range(n):
        row, off = sample_window(data, H, generator(seed, "window", i), order[i])
        x = np.concatenate([data.latents[row, off], data.latents[row, off + H]])
        target = data.actions[row, off:off + H].ravel()
        loss, grads = loss_grad(net, x, target)
        result.losses.append(loss)
        for j, g in enumerate(grads):
            net.weights[j] = dc.sgd_step(net.weights[j], g, lr)
    return result


def save_initnet(path, net: InitNet, meta: dict | None = None) -> None:
    os.makedirs(path, exist_ok=True)
    desc = {"kind": "initnet", "d_z": net.d_z, "d_a": net.d_a,
            "horizon": net.horizon, "a_max": net.a_max,
            "hidden": list(net.hidden), "meta": meta or {}}
    tensorio.write_json(os.path.join(path, "model.json"), desc, indent=2)
    tensorio.save_tensors(os.path.join(path, "weights.bin"), net.weights)


def load_initnet(path) -> tuple[InitNet, dict]:
    desc = tensorio.read_json(os.path.join(path, "model.json"),
                              ("d_z", "d_a", "horizon", "a_max", "hidden"))
    d_z, d_a, horizon = desc["d_z"], desc["d_a"], desc["horizon"]
    hidden = tuple(desc["hidden"])
    weights = nets.load_weights(path, (2 * d_z,) + hidden + (horizon * d_a,))
    net = InitNet(weights, d_z, d_a, horizon, desc["a_max"], hidden)
    return net, desc.get("meta", {})

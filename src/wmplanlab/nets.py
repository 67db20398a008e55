"""Small tanh MLPs shared by the world model and the initialization network.

`mlp_forward` is the one forward pass and `mlp_backward` the one backward
pass. Every gradient in the lab calls the two directly: training and the
attacks through `worldmodel.step_loss_grad`, the init net through
`initnet.loss_grad`, and GBP through its "wm-rollout" tape node
(`worldmodel.rollout_nodes`), which calls `mlp_backward` once per model
step of its sweep back through time."""

from __future__ import annotations

import os

import numpy as np

from . import tensorio
from .rng import generator


def init_mlp(sizes: tuple[int, ...], seed: int) -> list[np.ndarray]:
    """Weights/biases drawn uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    rng = generator(seed, "init-mlp")
    weights = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        weights.append(rng.uniform(-bound, bound, size=fan_out))
    return weights


def load_weights(path, sizes: tuple[int, ...]) -> list[np.ndarray]:
    """`path`/weights.bin, which must hold just the tensors `init_mlp(sizes)`
    draws; a mismatched or truncated file raises ValueError."""
    weights = tensorio.load_tensors(os.path.join(path, "weights.bin"))
    got = [w.shape for w in weights]
    want = [s for i, o in zip(sizes[:-1], sizes[1:]) for s in ((i, o), (o,))]
    if got != want:
        raise ValueError(f"weights.bin holds shapes {got}, model.json describes {want}")
    return weights


def mlp_forward(weights: list[np.ndarray],
                x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """tanh hidden layers, linear output; x is (d,) or a batch (B, d).
    Also returns each layer's input: x, then every tanh output, which is
    all `mlp_backward` needs."""
    n_layers = len(weights) // 2
    inputs = []
    for i in range(n_layers):
        inputs.append(x)
        x = x @ weights[2 * i] + weights[2 * i + 1]
        if i < n_layers - 1:
            x = np.tanh(x)
    return x, inputs


def mlp_backward(weights: list[np.ndarray], inputs: list[np.ndarray],
                 g: np.ndarray, dx: bool, params: bool):
    """(input gradient or None, [weight and bias gradients or None]) of one
    cached forward (`mlp_forward`) for the output gradient g, computed
    only where `dx` and `params` ask. One delta sweep, with the expressions
    and order of the affine and tanh reference ops in `tests/chain_ops.py`,
    so gradients are bit-identical to that unfused chain."""
    deltas = [g] * len(inputs)  # gradient at each layer's affine output
    for i in range(len(inputs) - 1, 0, -1):
        W, x, d = weights[2 * i], inputs[i], deltas[i]
        d = W @ d if x.ndim == 1 else d @ W.T
        deltas[i - 1] = d * (1.0 - x * x)  # x: tanh output of layer i - 1
    W, d = weights[0], deltas[0]
    gx = (W @ d if d.ndim == 1 else d @ W.T) if dx else None
    gparams = [None] * len(weights)
    if params:
        for i, (x, d) in enumerate(zip(inputs, deltas)):
            gparams[2 * i] = x[:, None] * d[None, :] if x.ndim == 1 else x.T @ d
            gparams[2 * i + 1] = d if d.ndim == 1 else d.sum(axis=0)
    return gx, gparams

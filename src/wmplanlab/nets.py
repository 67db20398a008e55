"""Small tanh MLPs: the world model's network.

`mlp_forward` is the one forward pass and `mlp_backward` the one backward
pass of training and the attack (`worldmodel.step_loss_grad`), which
call the two directly. A training step hands `mlp_backward` views of one
flat gradient vector (`worldmodel.FlatAdam`), and the weight and bias
gradients are written into them with `out=`, so one Adam call and one
finite check cover every weight. GBP's rollout node,
`worldmodel.rollout_nodes`, calls neither but unrolls both, with their
expressions and order, over its H model steps."""

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
                 g: np.ndarray, dx: bool,
                 params: list[np.ndarray] | None) -> np.ndarray | None:
    """The input gradient (None unless `dx` asks) of one cached forward
    (`mlp_forward`) for the output gradient g. Given `params`, one array
    per weight and bias of `weights` with its shape, the weight and bias
    gradients are also written into them; they need a batch (B, d), the
    input gradient also takes one input (d,). One delta sweep, with the
    expressions and order of the affine and tanh reference ops in
    `tests/chain_ops.py`, so gradients are bit-identical to that unfused
    chain."""
    deltas = [g] * len(inputs)  # gradient at each layer's affine output
    for i in range(len(inputs) - 1, 0, -1):
        W, x, d = weights[2 * i], inputs[i], deltas[i]
        d = W @ d if x.ndim == 1 else d @ W.T
        deltas[i - 1] = d * (1.0 - x * x)  # x: tanh output of layer i - 1
    W, d = weights[0], deltas[0]
    gx = (W @ d if d.ndim == 1 else d @ W.T) if dx else None
    if params is not None:
        for i, (x, d) in enumerate(zip(inputs, deltas)):
            np.matmul(x.T, d, out=params[2 * i])
            np.sum(d, axis=0, out=params[2 * i + 1])
    return gx

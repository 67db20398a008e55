"""Small tanh MLPs shared by the world model and the initialization network."""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
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


def mlp_forward_np(weights: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """tanh hidden layers, linear output; x is (d,) or a batch (B, d)."""
    n_layers = len(weights) // 2
    for i in range(n_layers):
        x = x @ weights[2 * i] + weights[2 * i + 1]
        if i < n_layers - 1:
            x = np.tanh(x)
    return x


def lift_params(tape: dc.Tape, weights: list[np.ndarray]) -> list[dc.Node]:
    """Put parameter tensors on a tape without copying.

    Weights are replaced (never mutated in place) by the update rules, so
    aliasing them from short-lived tapes is safe; validation happened at
    initialization or checkpoint load."""
    return [dc.Node(tape, np.asarray(w, dtype=np.float64), "param", (), ())
            for w in weights]


def mlp_forward_cache(weights: list[np.ndarray],
                      x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """`mlp_forward_np`, also returning each layer's input: x, then every
    tanh output, which is all the backward pass needs. Kept apart from
    `mlp_forward_np`, which the sampling planners call per candidate and
    which needs no cache."""
    n_layers = len(weights) // 2
    inputs = []
    for i in range(n_layers):
        inputs.append(x)
        x = x @ weights[2 * i] + weights[2 * i + 1]
        if i < n_layers - 1:
            x = np.tanh(x)
    return x, inputs


class MlpBackward:
    """Backward pass of one cached forward, run once per output gradient g
    and shared by the vjps of the fused node that owns it.

    The expressions and their order are those of the affine and tanh tape
    ops, so gradients are bit-identical to the unfused chain. The input
    gradient and each parameter gradient are computed only when asked for.
    Holds no reference to any node, so tapes stay free of cycles."""

    __slots__ = ("weights", "inputs", "g", "deltas", "dx_")

    def __init__(self, weights: list[np.ndarray], inputs: list[np.ndarray]):
        self.weights = weights
        self.inputs = inputs
        self.g = None

    def _deltas(self, g: np.ndarray) -> list[np.ndarray]:
        """Gradient at each layer's affine output, for this output gradient."""
        if g is not self.g:
            deltas = [g] * len(self.inputs)
            for i in range(len(self.inputs) - 1, 0, -1):
                W, x = self.weights[2 * i], self.inputs[i]
                d = deltas[i]
                d = W @ d if x.ndim == 1 else d @ W.T
                deltas[i - 1] = d * (1.0 - x * x)  # x: tanh output of layer i - 1
            self.g, self.deltas, self.dx_ = g, deltas, None
        return self.deltas

    def dx(self, g: np.ndarray) -> np.ndarray:
        """Gradient with respect to the MLP input."""
        delta = self._deltas(g)[0]
        if self.dx_ is None:
            W = self.weights[0]
            self.dx_ = W @ delta if self.inputs[0].ndim == 1 else delta @ W.T
        return self.dx_

    def param_vjps(self) -> list:
        """One vjp per weight and bias, in the order of `weights`."""
        vjps = []
        for i, x in enumerate(self.inputs):
            def vjp_w(g, i=i, x=x):
                d = self._deltas(g)[i]
                return x[:, None] * d[None, :] if x.ndim == 1 else x.T @ d

            def vjp_b(g, i=i):
                d = self._deltas(g)[i]
                return d if d.ndim == 1 else d.sum(axis=0)

            vjps += [vjp_w, vjp_b]
        return vjps


def mlp_forward_nodes(params: list[dc.Node], x: dc.Node) -> dc.Node:
    """The whole MLP as one tape node (op "mlp"), parents (x, *params)."""
    weights = [p.value for p in params]
    out, inputs = mlp_forward_cache(weights, x.value)
    back = MlpBackward(weights, inputs)
    return dc.Node(x.tape, out, "mlp", (x, *params), (back.dx, *back.param_vjps()))

"""The latent transition model, the one training loop (`fit`) with teacher
forcing on it, multi-step rollout, and the per-step model error measured
against the simulator."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from . import envs, nets, tensorio
from .data import Dataset, flatten_transitions
from .diffcore import AdamState, NumericFailure
from .encoder import Encoder, encode
from .rng import generator


@dataclass
class WorldModel:
    """Residual tanh MLP transition map: z_{t+1} = z_t + mlp([z_t; a_t])
    (or the raw MLP output when residual=False)."""

    weights: list[np.ndarray]
    d_z: int
    d_a: int
    hidden: tuple[int, ...] = (128, 128)
    residual: bool = True

    def clone(self) -> "WorldModel":
        return WorldModel([w.copy() for w in self.weights], self.d_z, self.d_a,
                          tuple(self.hidden), self.residual)

    def forward(self, z: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, list]:
        """z_{t+1} for one transition or a batch, and the MLP's layer inputs
        (`nets.mlp_forward`) that `nets.mlp_backward` takes."""
        out, inputs = nets.mlp_forward(self.weights, np.concatenate([z, a], axis=-1))
        return (z + out if self.residual else out), inputs

    def forward_nodes(self, z: dc.Node, a: dc.Node) -> dc.Node:
        """One transition as a single tape node (op "wm-step"), parents (z, a).
        With residual=True, z comes once more in front: the skip connection
        is its own edge, so z's gradient accumulates in the same order, hence
        to the same bits, as a concat -> MLP -> add chain. The weights are
        constants of the node; only GBP differentiates through it."""
        out, inputs = self.forward(z.value, a.value)
        parents = (z, z, a) if self.residual else (z, a)

        def backward(g, needed):
            gx, _ = nets.mlp_backward(self.weights, inputs, g, True, False)
            return (g,) * (len(parents) - 2) + (gx[..., :self.d_z], gx[..., self.d_z:])

        return dc.Node(z.tape, out, "wm-step", parents, backward)


def init_world_model(d_z: int, d_a: int, hidden: tuple[int, ...] = (128, 128),
                     residual: bool = True, seed: int = 0) -> WorldModel:
    sizes = (d_z + d_a,) + tuple(hidden) + (d_z,)
    return WorldModel(nets.init_mlp(sizes, seed), d_z, d_a, tuple(hidden), residual)


def predict(f: WorldModel, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """One transition; accepts single vectors or batches."""
    z = np.asarray(z, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if z.shape[-1] != f.d_z or a.shape[-1] != f.d_a:
        raise ValueError(f"dims ({z.shape[-1]}, {a.shape[-1]}) do not match "
                         f"model ({f.d_z}, {f.d_a})")
    return f.forward(z, a)[0]


def rollout_model(f: WorldModel, z1: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Latents z_2 .. z_{H+1} from recursive application (value path only).

    `actions` is one sequence (H, d_a) or a batch of them (..., H, d_a), and
    `z1` one start latent (d_z,) or one per sequence (..., d_z). A batch is
    rolled out as (B, H, d_a) with one `predict` call per step, and the
    latents come back as (..., H, d_z)."""
    actions = np.asarray(actions, dtype=np.float64)
    if actions.ndim < 2 or actions.shape[-2] < 1:
        raise ValueError(f"need (..., H, d_a) actions with H >= 1, "
                         f"got {actions.shape}")
    batch, H = actions.shape[:-2], actions.shape[-2]
    z = np.asarray(z1, dtype=np.float64)
    if batch:
        z = np.broadcast_to(z, batch + z.shape[-1:]).reshape(-1, z.shape[-1])
        actions = actions.reshape(-1, H, actions.shape[-1])
    out = np.empty(actions.shape[:-1] + (f.d_z,))
    for t in range(H):
        z = predict(f, z, actions[..., t, :])
        if not np.all(np.isfinite(z)):
            raise NumericFailure(f"non-finite latent at rollout step {t + 1}")
        out[..., t, :] = z
    return out.reshape(batch + (H, f.d_z))


def rollout_nodes(f: WorldModel, z1: dc.Node,
                  action_nodes: list[dc.Node]) -> list[dc.Node]:
    """Differentiable rollout on one tape; gradients reach every action."""
    zs = []
    z = z1
    for t, a in enumerate(action_nodes):
        z = f.forward_nodes(z, a)
        if not np.isfinite(z.value.sum()):
            raise NumericFailure(f"non-finite latent at rollout step {t + 1}")
        zs.append(z)
    return zs


@dataclass
class TrainResult:
    model: WorldModel
    batch_losses: list[float] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)
    perturbed: Dataset | None = None  # filled by adversarial finetuning on request


def step_loss_grad(f: WorldModel, Z: np.ndarray, A: np.ndarray, target: np.ndarray,
                   scale: float, dx: bool, params: bool):
    """(loss, gZ, gA, weight gradients) of the one-step loss
    scale * ||f(Z, A) - target||^2, a float, with the input gradients only
    if `dx` asks and the weight gradients (else None each) only if `params`
    does. The expressions and their order are those of a "wm-step" node
    under a "sq-dist" loss on the tape, so the bits are too. A non-finite
    input or target raises ValueError, a non-finite gradient NumericFailure."""
    Z, A = dc.tensor(Z), dc.tensor(A)
    pred, inputs = f.forward(Z, A)
    d = pred - dc.tensor(target)
    g = 2.0 * scale * d
    gx, gweights = nets.mlp_backward(f.weights, inputs, g, dx, params)
    gZ = gA = None
    if dx:
        gZ, gA = gx[..., :f.d_z], gx[..., f.d_z:]
        if f.residual:
            gZ = g + gZ  # the skip edge's contribution comes first
    for grad in (gZ, gA, *gweights):
        if grad is not None and not np.isfinite(grad.sum()):
            raise NumericFailure("NaN in the backward pass of a one-step loss")
    return float((d * d).sum() * scale), gZ, gA, gweights


def supervised_step(model: WorldModel, opt: list[AdamState], Z: np.ndarray,
                    A: np.ndarray, ZN: np.ndarray, lr: float) -> float:
    """One Adam step on the mean squared next-latent error of a batch.

    Mutates `model.weights` and `opt` in place; returns the batch loss."""
    loss, _, _, grads = step_loss_grad(model, Z, A, ZN, 1.0 / len(Z), False, True)
    for i, g in enumerate(grads):
        model.weights[i], opt[i] = dc.adam_step(model.weights[i], g, opt[i], lr)
    return loss


def fit(model: WorldModel, batches, lr: float, what: str) -> TrainResult:
    """Train `model` in place with one Adam step (`supervised_step`) per
    (epoch, Z, A, ZN) batch that `batches` yields, keeping every batch loss
    and the mean batch loss of each epoch, in the order the epochs come.

    The one training loop: teacher forcing, adversarial and online
    finetuning differ only in the batches they feed it. `batches` is read
    lazily, so a batch built from `model` sees the weights of every step
    before it. A non-finite loss raises NumericFailure("<what> loss
    diverged") with the earlier batch losses as its trace."""
    opt = [AdamState.zeros(w.shape) for w in model.weights]
    result = TrainResult(model)
    by_epoch: dict = {}
    for epoch, Z, A, ZN in batches:
        loss = supervised_step(model, opt, Z, A, ZN, lr)
        del Z, A, ZN  # the next batch is built without this one held alive
        if not np.isfinite(loss):
            raise NumericFailure(f"{what} loss diverged", trace=result.batch_losses)
        result.batch_losses.append(loss)
        by_epoch.setdefault(epoch, []).append(loss)
    result.epoch_losses = [float(np.mean(ep)) for ep in by_epoch.values()]
    return result


def train_teacher_forcing(f: WorldModel, data: Dataset, epochs: int = 50,
                          batch_size: int = 64, lr: float = 1e-3,
                          seed: int = 0) -> TrainResult:
    """Fit next-latent prediction on (z_t, a_t, z_{t+1}) triplets with Adam:
    every epoch shuffles all triplets of the dataset and walks them in
    batches of `batch_size`."""
    if not len(data):
        raise ValueError("empty dataset")
    Z, A, ZN = flatten_transitions(data)

    def batches():
        for epoch in range(epochs):
            perm = generator(seed, "shuffle", epoch).permutation(len(Z))
            for lo in range(0, len(Z), batch_size):
                idx = perm[lo:lo + batch_size]
                yield epoch, Z[idx], A[idx], ZN[idx]

    return fit(f.clone(), batches(), lr, "training")


def wm_error(f: WorldModel, enc: Encoder, spec: envs.EnvSpec,
             s1: envs.EnvState, actions) -> np.ndarray:
    """Teacher-forced model error, one squared distance per step: at each
    step the model is fed the latent of the *true* state, so errors never
    compound in this metric."""
    actions = np.asarray(actions, dtype=np.float64)
    values = np.empty(len(actions))
    s = s1
    for t, a in enumerate(actions):
        z_t = encode(enc, envs.obs_of(spec, s))
        pred = predict(f, z_t, a)
        s = envs.step(spec, s, a)
        z_next = encode(enc, envs.obs_of(spec, s))
        d = pred - z_next
        values[t] = float(d @ d)
    return values


def save_model(path, model: WorldModel, meta: dict | None = None) -> None:
    os.makedirs(path, exist_ok=True)
    desc = {
        "d_z": model.d_z, "d_a": model.d_a,
        "hidden": list(model.hidden), "residual": model.residual,
        "meta": meta or {},
    }
    tensorio.write_json(os.path.join(path, "model.json"), desc, indent=2)
    tensorio.save_tensors(os.path.join(path, "weights.bin"), model.weights)


def load_model(path) -> tuple[WorldModel, dict]:
    with open(os.path.join(path, "model.json")) as fh:
        desc = json.load(fh)
    d_z, d_a, hidden = desc["d_z"], desc["d_a"], tuple(desc["hidden"])
    weights = nets.load_weights(path, (d_z + d_a,) + hidden + (d_z,))
    model = WorldModel(weights, d_z, d_a, hidden, desc["residual"])
    return model, desc.get("meta", {})

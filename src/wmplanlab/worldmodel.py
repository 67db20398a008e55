"""The latent transition model, its teacher-forcing training, multi-step
rollout, and the per-step model error measured against the simulator."""

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

    def param_count(self) -> int:
        return int(sum(w.size for w in self.weights))

    # tape path: parameters must be lifted once per tape via nets.lift_params
    def forward_nodes(self, params: list[dc.Node], z: dc.Node, a: dc.Node) -> dc.Node:
        """One transition as a single tape node (op "wm-step"), parents
        (z, a, *params). With residual=True, z comes once more in front: the
        skip connection is its own edge, so z's gradient accumulates in the
        same order, hence to the same bits, as a concat -> MLP -> add chain."""
        d_z = z.value.shape[-1]
        weights = [p.value for p in params]
        out, inputs = nets.mlp_forward_cache(
            weights, np.concatenate([z.value, a.value], axis=-1))
        back = nets.MlpBackward(weights, inputs)
        parents = (z, a, *params)
        vjps = (lambda g: back.dx(g)[..., :d_z], lambda g: back.dx(g)[..., d_z:],
                *back.param_vjps())
        if not self.residual:
            return dc.Node(z.tape, out, "wm-step", parents, vjps)
        return dc.Node(z.tape, z.value + out, "wm-step", (z, *parents),
                       (_identity, *vjps))

    def forward_np(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        x = np.concatenate([z, a], axis=-1)
        out = nets.mlp_forward_np(self.weights, x)
        return z + out if self.residual else out


def _identity(g: np.ndarray) -> np.ndarray:
    return g


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
    return f.forward_np(z, a)


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


def rollout_nodes(f: WorldModel, params: list[dc.Node], z1: dc.Node,
                  action_nodes: list[dc.Node]) -> list[dc.Node]:
    """Differentiable rollout on one tape; gradients reach every action."""
    zs = []
    z = z1
    for t, a in enumerate(action_nodes):
        z = f.forward_nodes(params, z, a)
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


def iter_trajectory_batches(n_traj: int, batch_size: int, epochs: int, seed: int):
    """Yield (epoch, trajectory-index array) with a per-epoch seeded shuffle.

    Shared between trajectory-unit teacher forcing and adversarial
    finetuning so the two consume identical batch schedules."""
    for epoch in range(epochs):
        perm = generator(seed, "shuffle", epoch).permutation(n_traj)
        for lo in range(0, n_traj, batch_size):
            yield epoch, perm[lo:lo + batch_size]


def supervised_step(model: WorldModel, opt: list[AdamState], Z: np.ndarray,
                    A: np.ndarray, ZN: np.ndarray, lr: float) -> float:
    """One Adam step on the mean squared next-latent error of a batch.

    Mutates `model.weights` and `opt` in place; returns the batch loss."""
    tape = dc.Tape()
    params = nets.lift_params(tape, model.weights)
    pred = model.forward_nodes(params, tape.constant(Z), tape.constant(A))
    loss = dc.sq_dist([pred], [ZN], [1.0], 1.0 / len(Z))
    value = float(loss.value)
    grads = dc.grad(loss, params)
    for i, g in enumerate(grads):
        model.weights[i], opt[i] = dc.adam_step(model.weights[i], g, opt[i], lr)
    return value


def train_teacher_forcing(f: WorldModel, data: Dataset, epochs: int = 50,
                          batch_size: int = 64, lr: float = 1e-3, seed: int = 0,
                          batch_unit: str = "transition") -> TrainResult:
    """Fit next-latent prediction on (z_t, a_t, z_{t+1}) triplets with Adam.

    batch_unit "transition" (default) flattens and shuffles all triplets per
    epoch; "trajectory" batches whole trajectories instead, the schedule the
    adversarial finetuner uses.
    """
    if not data.trajectories:
        raise ValueError("empty dataset")
    model = f.clone()
    opt = [AdamState.zeros(w.shape) for w in model.weights]
    result = TrainResult(model)
    if batch_unit == "transition":
        Z, A, ZN = flatten_transitions(data)
        n = len(Z)
        for epoch in range(epochs):
            perm = generator(seed, "shuffle", epoch).permutation(n)
            ep = []
            for lo in range(0, n, batch_size):
                idx = perm[lo:lo + batch_size]
                loss = supervised_step(model, opt, Z[idx], A[idx], ZN[idx], lr)
                if not np.isfinite(loss):
                    raise NumericFailure("training loss diverged",
                                         trace=result.batch_losses)
                result.batch_losses.append(loss)
                ep.append(loss)
            result.epoch_losses.append(float(np.mean(ep)))
    elif batch_unit == "trajectory":
        current_epoch, ep = 0, []
        for epoch, idx in iter_trajectory_batches(len(data.trajectories),
                                                  batch_size, epochs, seed):
            if epoch != current_epoch:
                result.epoch_losses.append(float(np.mean(ep)))
                current_epoch, ep = epoch, []
            sub = Dataset([data.trajectories[i] for i in idx], data.provenance)
            Z, A, ZN = flatten_transitions(sub)
            loss = supervised_step(model, opt, Z, A, ZN, lr)
            if not np.isfinite(loss):
                raise NumericFailure("training loss diverged",
                                     trace=result.batch_losses)
            result.batch_losses.append(loss)
            ep.append(loss)
        if ep:
            result.epoch_losses.append(float(np.mean(ep)))
    else:
        raise ValueError(f"unknown batch_unit {batch_unit!r}")
    return result


@dataclass
class WmErrorSeries:
    """Per-step model error along a simulator-corrected state chain."""

    values: np.ndarray
    mean: float

    @classmethod
    def from_values(cls, values) -> "WmErrorSeries":
        arr = np.asarray(values, dtype=np.float64)
        return cls(arr, float(arr.mean()))


def wm_error(f: WorldModel, enc: Encoder, spec: envs.EnvSpec,
             s1: envs.EnvState, actions) -> WmErrorSeries:
    """Teacher-forced model error: at each step the model is fed the latent
    of the *true* state, so errors never compound in this metric."""
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
    return WmErrorSeries.from_values(values)


def save_model(path, model: WorldModel, meta: dict | None = None) -> None:
    os.makedirs(path, exist_ok=True)
    desc = {
        "d_z": model.d_z, "d_a": model.d_a,
        "hidden": list(model.hidden), "residual": model.residual,
        "meta": meta or {},
    }
    with open(os.path.join(path, "model.json"), "w") as fh:
        json.dump(desc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    tensorio.save_tensors(os.path.join(path, "weights.bin"), model.weights)


def load_model(path) -> tuple[WorldModel, dict]:
    with open(os.path.join(path, "model.json")) as fh:
        desc = json.load(fh)
    weights = tensorio.load_tensors(os.path.join(path, "weights.bin"))
    model = WorldModel(weights, desc["d_z"], desc["d_a"],
                       tuple(desc["hidden"]), desc["residual"])
    return model, desc.get("meta", {})

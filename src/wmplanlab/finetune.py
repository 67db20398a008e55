"""Robustness finetuning for latent world models.

Online world modeling replans over expert start/goal pairs, executes the
planned actions in the simulator, and finetunes on the corrected
trajectories, expanding coverage to the states planning actually visits.
Adversarial world modeling perturbs latent states and actions inside an
l-infinity ball in the direction that maximizes one-step prediction error
(signed-gradient attacks), keeping the prediction targets clean.
Both keep teacher forcing's next-latent objective and change only the
inputs it sees: each trainer is a batch generator fed to `worldmodel.fit`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import envs
from .config import COUNT, NONNEG, NONNEG_NUMBER, POSITIVE, check, one_of
from .data import Dataset, flatten_transitions, sample_window
from .encoder import Encoder, encode
from .planners import OPTIMIZERS, PlanConfig, gbp
from .rng import derive_seed, generator
from .worldmodel import TrainResult, WorldModel, fit, step_loss_grad


ATTACKS = ("fgsm", "pgd")
RADIUS_MODES = ("fixed", "adaptive")


@dataclass
class PerturbationConfig:
    """Attack geometry: scaling factors turn batch statistics into radii,
    unless both radii are given; step sizes default to 1.25x the radius."""

    lambda_a: float = field(default=0.5, metadata=NONNEG_NUMBER)
    lambda_z: float = field(default=0.2, metadata=NONNEG_NUMBER)
    eps_a: float | None = field(default=None, metadata=NONNEG_NUMBER)
    eps_z: float | None = field(default=None, metadata=NONNEG_NUMBER)
    alpha_a: float | None = field(default=None, metadata=POSITIVE)
    alpha_z: float | None = field(default=None, metadata=POSITIVE)
    attack: str = field(default="fgsm", metadata=one_of(ATTACKS))
    pgd_steps: int = field(default=1, metadata=COUNT)
    radius_mode: str = field(default="fixed", metadata=one_of(RADIUS_MODES))
    per_dimension_std: bool = False

    def __post_init__(self):
        check(self)
        if (self.eps_a is None) != (self.eps_z is None):
            raise ValueError("eps_a and eps_z are set together or not at all, got "
                             f"eps_a {self.eps_a!r} and eps_z {self.eps_z!r}")
        if self.lambda_a > 1.0 or self.lambda_z > 0.5:
            warnings.warn("scaling factors outside the stable ranges "
                          "(lambda_a <= 1, lambda_z <= 0.5)",
                          stacklevel=3)  # past the generated __init__


def _traj_std(arr: np.ndarray, per_dimension: bool) -> np.ndarray:
    """The standard deviation of each trajectory of a (B, T, d) batch."""
    if per_dimension:
        return np.std(arr, axis=1).mean(axis=1)
    return np.std(arr, axis=(1, 2))


def compute_radii(actions: np.ndarray, latents: np.ndarray, lambda_a: float,
                  lambda_z: float, per_dimension: bool = False) -> tuple[float, float]:
    """Radii = scaling factor times the mean over the batch's trajectories,
    actions (B, T, d_a) and latents (B, T+1, d_z), of the standard
    deviation of each trajectory's action / latent sequence."""
    if not len(actions):
        raise ValueError("empty minibatch")
    eps_a = lambda_a * float(np.mean(_traj_std(actions, per_dimension)))
    eps_z = lambda_z * float(np.mean(_traj_std(latents, per_dimension)))
    if eps_a == 0.0 and lambda_a > 0:
        warnings.warn("zero-variance actions: eps_a = 0, attack is a no-op",
                      stacklevel=2)
    if eps_z == 0.0 and lambda_z > 0:
        warnings.warn("zero-variance latents: eps_z = 0, attack is a no-op",
                      stacklevel=2)
    return eps_a, eps_z


def _attack_deltas(f: WorldModel, Z: np.ndarray, A: np.ndarray, ZN: np.ndarray,
                   pcfg: PerturbationConfig,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Signed-gradient ascent on the one-step prediction loss; rows are
    independent transitions, so the batched attack equals the per-transition
    attack. Clipping keeps every entry inside its radius exactly."""
    eps_a, eps_z = pcfg.eps_a, pcfg.eps_z
    if eps_a is None or eps_z is None:
        raise ValueError("perturbation radii unset; compute_radii first")
    alpha_a = 1.25 * eps_a if pcfg.alpha_a is None else pcfg.alpha_a
    alpha_z = 1.25 * eps_z if pcfg.alpha_z is None else pcfg.alpha_z
    if pcfg.attack == "fgsm":
        steps = 1
        da = rng.uniform(-eps_a, eps_a, size=A.shape)
        dz = rng.uniform(-eps_z, eps_z, size=Z.shape)
    else:
        steps = pcfg.pgd_steps
        da = np.zeros_like(A)
        dz = np.zeros_like(Z)
    for _ in range(steps):
        # the gradient at a perturbed input is the gradient at its perturbation
        _, gz, ga, _ = step_loss_grad(f, Z + dz, A + da, ZN, 1.0, True, False)
        da = np.clip(da + alpha_a * np.sign(ga), -eps_a, eps_a)
        dz = np.clip(dz + alpha_z * np.sign(gz), -eps_z, eps_z)
    return da, dz


def attack_perturb(f: WorldModel, z: np.ndarray, a: np.ndarray,
                   z_next: np.ndarray, pcfg: PerturbationConfig,
                   seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Adversarial perturbations (delta_a, delta_z) for a single transition."""
    rng = generator(seed, "attack-init")
    da, dz = _attack_deltas(
        f, np.asarray(z, dtype=np.float64)[None, :],
        np.asarray(a, dtype=np.float64)[None, :],
        np.asarray(z_next, dtype=np.float64)[None, :], pcfg, rng)
    return da[0], dz[0]


def adversarial_wm(f: WorldModel, data: Dataset, pcfg: PerturbationConfig,
                   epochs: int, batch_size: int, lr: float, seed: int = 0,
                   keep_perturbed: bool = False) -> TrainResult:
    """Finetune on perturbed-input / clean-target transition batches.

    Minibatches are whole trajectories (radii statistics are per
    trajectory), `batch_size` at a time from a shuffle seeded per epoch;
    attacks are regenerated fresh, against the current weights, every time
    a batch is visited. With both scaling factors zero
    the batches are the clean transitions of each trajectory batch.
    keep_perturbed stores the final epoch's perturbed pairs as one-step
    trajectories so they can be written in the dataset format.
    """
    if not len(data):
        raise ValueError("empty dataset")
    model = f.clone()
    last_epoch = []  # the final epoch's (Z, A, ZN) batches, on request

    def batches():
        radii: tuple[float, float] | None = None
        step = 0  # batches so far, over all epochs
        for epoch in range(epochs):
            perm = generator(seed, "shuffle", epoch).permutation(len(data))
            for lo in range(0, len(data), batch_size):
                idx = perm[lo:lo + batch_size]
                if pcfg.eps_a is not None:
                    radii = pcfg.eps_a, pcfg.eps_z  # explicit radii win
                elif radii is None or pcfg.radius_mode == "adaptive":
                    # "fixed" mode keeps the radii of the first batch
                    radii = compute_radii(data.actions[idx], data.latents[idx],
                                          pcfg.lambda_a, pcfg.lambda_z,
                                          pcfg.per_dimension_std)
                eps_a, eps_z = radii
                Z, A, ZN = flatten_transitions(data, idx)
                if eps_a != 0.0 or eps_z != 0.0:
                    work = replace(pcfg, eps_a=eps_a, eps_z=eps_z)
                    da, dz = _attack_deltas(model, Z, A, ZN, work,
                                            generator(seed, "attack", step))
                    Z, A = Z + dz, A + da
                if keep_perturbed and epoch == epochs - 1:
                    last_epoch.append((Z, A, ZN))
                step += 1
                yield epoch, Z, A, ZN

    result = fit(model, batches(), lr, "adversarial finetuning")
    if keep_perturbed:
        Z, A, ZN = (np.concatenate(arrs) for arrs in zip(*last_epoch))
        result.perturbed = Dataset(A[:, None], latents=np.stack([Z, ZN], axis=1),
                                   provenance="adversarial")
    return result


@dataclass
class OnlineConfig:
    iterations: int = field(default=40, metadata=NONNEG)  # planner rollouts to correct
    plan_iterations: int = field(default=100, metadata=COUNT)
    horizon: int = field(default=25, metadata=COUNT)
    mix_ratio: float = 0.5  # fraction of each batch from the original data;
    # 0 trains on corrected trajectories only
    lr: float = field(default=1e-4, metadata=POSITIVE)
    finetune_steps: int = field(default=50, metadata=NONNEG)
    batch_size: int = field(default=64, metadata=COUNT)
    plan_optimizer: str = field(default="adam", metadata=one_of(OPTIMIZERS))
    plan_eta: float = field(default=0.3, metadata=POSITIVE)

    def __post_init__(self):
        check(self)
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ValueError("mix_ratio must lie in [0, 1]")


@dataclass
class OnlineResult:
    model: WorldModel
    corrected: Dataset
    batch_losses: list[float] = field(default_factory=list)


def online_wm(f: WorldModel, spec: envs.EnvSpec, enc: Encoder, data: Dataset,
              cfg: OnlineConfig, seed: int = 0) -> OnlineResult:
    """Plan over expert start/goal pairs, execute in the simulator, and
    finetune on the corrected trajectories (mixed with expert replay).

    Each iteration plans with the weights of every finetuning step before
    it, then takes `finetune_steps` batches of `batch_size` transitions, a
    `mix_ratio` share drawn from the expert data and the rest from every
    corrected trajectory so far."""
    model = f.clone()
    H, n_iter = cfg.horizon, cfg.iterations  # one corrected trajectory each
    corrected = Dataset(np.empty((n_iter, H, spec.action_dim)),
                        obs=np.empty((n_iter, H + 1, spec.obs_dim)),
                        latents=np.empty((n_iter, H + 1, enc.d_z)),
                        provenance="corrected")
    expert = flatten_transitions(data)
    n_expert = int(round(cfg.mix_ratio * cfg.batch_size))
    plan_cfg = PlanConfig(horizon=H, iterations=cfg.plan_iterations,
                          optimizer=cfg.plan_optimizer, eta=cfg.plan_eta,
                          a_max=spec.a_max)

    def batches():
        for i in range(n_iter):
            row, off = sample_window(data, H, generator(seed, "online", i))
            pr = gbp(model, data.latents[row, off], data.latents[row, off + H],
                     plan_cfg, derive_seed(seed, "online-plan", i))
            o1 = data.obs[row, off]
            states = envs.rollout_env(spec, envs.state_of_obs(spec, o1), pr.actions)
            corrected.actions[i] = pr.actions
            corrected.obs[i] = [o1] + [envs.obs_of(spec, s) for s in states]
            corrected.latents[i] = encode(enc, corrected.obs[i])
            pools = ((expert, n_expert),  # the corrected pool: its first i+1 rows
                     (flatten_transitions(corrected, slice(i + 1)),
                      cfg.batch_size - n_expert))
            for k in range(cfg.finetune_steps):
                brng = generator(seed, "online-batch", i, k)
                # n random rows of each pool with n > 0, the expert rows first
                rows = [(pool, brng.integers(len(pool[0]), size=n))
                        for pool, n in pools if n > 0]
                Z, A, ZN = (np.concatenate([pool[j][idx] for pool, idx in rows])
                            for j in range(3))
                yield i, Z, A, ZN

    result = fit(model, batches(), cfg.lr, "online finetuning")
    return OnlineResult(model, corrected, result.batch_losses)

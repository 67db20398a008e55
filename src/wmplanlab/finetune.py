"""Robustness finetuning for latent world models.

Online world modeling replans over expert start/goal pairs, executes the
planned actions in the simulator, and finetunes on the corrected
trajectories, expanding coverage to the states planning actually visits.
Adversarial world modeling perturbs latent states and actions inside an
l-infinity ball in the direction that maximizes one-step prediction error,
by FGSM with first-batch radii, keeping the prediction targets clean. The
attack reads only the sign of the input gradient, so it differentiates a
float32 copy of the model, made once per batch; its deltas are float64,
and the training step that sees them computes in float32 and steps the
float64 weights, as every step of `worldmodel.fit` does.
Both keep teacher forcing's next-latent objective and change only the
inputs it sees: each trainer is a batch generator fed to `worldmodel.fit`,
and returns `fit`'s `TrainResult` with the set it synthesized.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import envs
from .config import COUNT, NONNEG, NONNEG_NUMBER, POSITIVE, check, one_of
from .data import Dataset, flatten_transitions, sample_window
from .encoder import Encoder, encode
from .planners import OPTIMIZERS, PlanConfig, gbp
from .rng import derive_seed, generator
from .worldmodel import (TrainResult, WorldModel, _float32, fit, shuffled_batches,
                         step_loss_grad)


@dataclass
class PerturbationConfig:
    """FGSM with first-batch radii: each radius is its scaling factor times
    the mean per-trajectory standard deviation of the first batch."""

    lambda_a: float = field(default=0.5, metadata=NONNEG_NUMBER)
    lambda_z: float = field(default=0.2, metadata=NONNEG_NUMBER)

    def __post_init__(self):
        check(self)
        if self.lambda_a > 1.0 or self.lambda_z > 0.5:
            warnings.warn("scaling factors outside the stable ranges "
                          "(lambda_a <= 1, lambda_z <= 0.5)",
                          stacklevel=3)  # past the generated __init__


def compute_radii(actions: np.ndarray, latents: np.ndarray, lambda_a: float,
                  lambda_z: float) -> tuple[float, float]:
    """Radii = scaling factor times the mean over the batch's trajectories,
    actions (B, T, d_a) and latents (B, T+1, d_z), of the standard
    deviation of each trajectory's action / latent sequence."""
    if not len(actions):
        raise ValueError("empty minibatch")
    eps_a = lambda_a * float(np.mean(np.std(actions, axis=(1, 2))))
    eps_z = lambda_z * float(np.mean(np.std(latents, axis=(1, 2))))
    if eps_a == 0.0 and lambda_a > 0:
        warnings.warn("zero-variance actions: eps_a = 0, attack is a no-op",
                      stacklevel=2)
    if eps_z == 0.0 and lambda_z > 0:
        warnings.warn("zero-variance latents: eps_z = 0, attack is a no-op",
                      stacklevel=2)
    return eps_a, eps_z


def _attack_deltas(f: WorldModel, Z: np.ndarray, A: np.ndarray, ZN: np.ndarray,
                   eps_a: float, eps_z: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """FGSM from a uniform random start (Wong et al., "Fast is better than
    free", 2020): one signed step of 1.25 * eps up the one-step prediction
    loss, taken at the start, then a clip back into the l-infinity ball of
    radius eps, which keeps every entry inside its radius exactly. Rows are
    independent transitions, so the batched attack equals the
    per-transition attack.

    The step reads only the sign of the input gradient, so the gradient
    comes from a float32 copy of `f` (`worldmodel._float32`), made once per
    call because the weights change with every training step (mixed
    precision as in Micikevicius et al. 2018); the training step's float32
    mirror would be one Adam step behind here, as a step refreshes it only
    when it runs. The start draws, the radii, the sign step, the clip and
    the returned deltas are float64. The gradient runs under one
    `np.errstate`: a perturbed input beyond float32's range, or a
    non-finite float32 gradient, raises NumericFailure, and a loss that
    overflows float32 is discarded without a warning."""
    da = rng.uniform(-eps_a, eps_a, size=A.shape)
    dz = rng.uniform(-eps_z, eps_z, size=Z.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        # the gradient at a perturbed input is the gradient at its perturbation
        _, gz, ga = step_loss_grad(_float32(f), Z + dz, A + da, ZN, 1.0, True,
                                   None)
    # a float64 sign keeps the step float64: times a float32 sign, 1.25 * eps
    # would be rounded to float32
    da = np.clip(da + 1.25 * eps_a * np.sign(ga, dtype=np.float64), -eps_a, eps_a)
    dz = np.clip(dz + 1.25 * eps_z * np.sign(gz, dtype=np.float64), -eps_z, eps_z)
    return da, dz


def adversarial_wm(f: WorldModel, data: Dataset, pcfg: PerturbationConfig,
                   epochs: int, batch_size: int, lr: float, seed: int = 0,
                   keep_perturbed: bool = False) -> TrainResult:
    """Finetune on perturbed-input / clean-target transition batches.

    Minibatches are whole trajectories (radii statistics are per
    trajectory), `batch_size` at a time from a shuffle seeded per epoch;
    the radii come from the first batch and hold for every batch, and
    attacks are regenerated fresh, against the current weights, every time
    a batch is visited, each through a float32 copy of the current
    weights (`_attack_deltas`) that yields float64 deltas. `fit` trains on
    the perturbed batches as on any other: a float32 step on the float64
    weights. With both scaling factors zero the batches are the clean
    transitions of each trajectory batch.
    keep_perturbed stores the final epoch's perturbed pairs as the result's
    `synthesized` set, one-step trajectories in the dataset format.
    """
    if not len(data):
        raise ValueError("empty dataset")
    model = f.clone()
    last_epoch = []  # the final epoch's (Z, A, ZN) batches, on request
    first = next(shuffled_batches(len(data), batch_size, 1, seed))[1]
    eps_a, eps_z = compute_radii(data.actions[first], data.latents[first],
                                 pcfg.lambda_a, pcfg.lambda_z)

    def batches():
        for step, (epoch, idx) in enumerate(
                shuffled_batches(len(data), batch_size, epochs, seed)):
            Z, A, ZN = flatten_transitions(data, idx)
            if eps_a != 0.0 or eps_z != 0.0:
                da, dz = _attack_deltas(model, Z, A, ZN, eps_a, eps_z,
                                        generator(seed, "attack", step))
                Z, A = Z + dz, A + da
            if keep_perturbed and epoch == epochs - 1:
                last_epoch.append((Z, A, ZN))
            yield epoch, Z, A, ZN

    result = fit(model, batches(), lr, "adversarial finetuning")
    if keep_perturbed:
        Z, A, ZN = (np.concatenate(arrs) for arrs in zip(*last_epoch))
        result.synthesized = Dataset(A[:, None], latents=np.stack([Z, ZN], axis=1),
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


def online_wm(f: WorldModel, spec: envs.EnvSpec, enc: Encoder, data: Dataset,
              cfg: OnlineConfig, seed: int = 0) -> TrainResult:
    """Plan over expert start/goal pairs, execute in the simulator, and
    finetune on the corrected trajectories (mixed with expert replay).

    Each iteration plans with the weights of every finetuning step before
    it, then takes `finetune_steps` batches of `batch_size` transitions, a
    `mix_ratio` share drawn from the expert data and the rest from every
    corrected trajectory so far. The result's `synthesized` set holds the
    corrected trajectories; it keeps the batch losses only, as the
    iterations are not epochs."""
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
            window = sample_window(data, H, generator(seed, "online", i))
            pr = gbp(model, window.latents[0], window.latents[H], plan_cfg,
                     derive_seed(seed, "online-plan", i))
            corrected.actions[i] = pr.actions
            corrected.obs[i] = envs.visit(spec, window.obs[0], pr.actions)
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
    return TrainResult(model, result.batch_losses, synthesized=corrected)

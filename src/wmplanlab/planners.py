"""Test-time planners over a learned latent model.

A planner is its config: `PlanConfig` plans with GBP, `CemConfig` with CEM,
or with GradCEM (Bharadhwaj et al. 2020) when its `refine` is set, and
`MppiConfig` with MPPI. Each config holds its own horizon, every planner
function takes `(f, z1, z_goal, cfg, seed)`, and `run_planner` picks the
function by the config's type.

Gradient-based planning backpropagates the goal loss through a recursive
model rollout and updates one action sequence with SGD or Adam; it is the
only code in the lab that builds a tape. Each iteration's tape is three
nodes: a leaf holding the (H, d_a) actions, a constant start latent and one
"wm-rollout" node (`rollout_nodes`) that runs the H model steps, scores the
goal loss and, in its backward, sweeps back through all H steps in closed
form. The sampling planners score their whole population in one batched
NumPy rollout per iteration (`final_cost` on an (N, H, d_a) array, one
`predict` call per step for all N sequences). GradCEM runs GBP from each
CEM sample, so its refinement steps are `gbp` calls, still one sequence at
a time on the tape. A model evaluation thus costs very different amounts
on the two paths, so wall-clock between the two families says nothing by
itself: read it next to `PlanResult.model_evals`, the (sequence x step)
rows each plan rolled out. The MPC harness replans from
re-encoded simulator states and executes the first K actions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import diffcore as dc
from . import envs
from .diffcore import AdamState, NumericFailure
from .encoder import Encoder, encode
from .rng import derive_seed, generator
from .worldmodel import WorldModel, rollout_model, rollout_nodes


@dataclass
class GoalLossSpec:
    """Final-state distance without `weights`, else a weight-normalized mean
    over all predicted states (weights stored unnormalized; they are divided
    by their sum)."""

    weights: np.ndarray | None = None


def wgl_late_heavy(H: int) -> GoalLossSpec:
    """Exponentially upweight later states: w_i = 2^i for i = 2..H+1."""
    return GoalLossSpec(np.exp2(np.arange(2, H + 2, dtype=np.float64)))


def wgl_early_heavy(H: int) -> GoalLossSpec:
    """Exponentially upweight earlier states: w_i = (1/2)^i."""
    return GoalLossSpec(0.5 ** np.arange(2, H + 2, dtype=np.float64))


def goal_loss(spec: GoalLossSpec, f: WorldModel, z1: dc.Node, a: dc.Node,
              z_goal: np.ndarray) -> dc.Node:
    """The goal loss over the latents z_2 .. z_{H+1} that `f` predicts from
    `z1` under the actions `a` (H, d_a), as one "wm-rollout" tape node
    (`rollout_nodes`), with the spec's weights checked and normalized."""
    if spec.weights is None:
        return rollout_nodes(f, z1, a, z_goal, None)
    H = len(a.value)
    w = np.asarray(spec.weights, dtype=np.float64)
    if w.shape != (H,):
        raise ValueError(f"weight list length {w.shape} != horizon {H}")
    if np.any(w <= 0):
        raise ValueError("goal loss weights must be strictly positive")
    return rollout_nodes(f, z1, a, z_goal, w / w.sum())


OPTIMIZERS = ("sgd", "adam")
INITS = ("gaussian", "initnet", "fixed")
COV_MODES = ("full", "diagonal")


@dataclass
class PlanConfig:
    horizon: int = 25
    iterations: int = 300
    optimizer: str = "sgd"  # "sgd" | "adam"
    eta: float = 1.0
    loss: GoalLossSpec = field(default_factory=GoalLossSpec)
    init: str = "gaussian"  # "gaussian" | "initnet" | "fixed"
    init_actions: object = None  # ndarray for "fixed", callable(z1, z_goal) for "initnet"
    clamp_actions: bool = True
    a_max: float | None = None
    return_best: bool = True

    def __post_init__(self):
        if self.horizon < 1 or self.iterations < 1:
            raise ValueError("horizon and iterations must be >= 1")
        if self.eta <= 0:
            raise ValueError("step size must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class PlanResult:
    actions: np.ndarray
    loss_trace: list[float]
    wall_clock: float
    iterations: int
    final_loss: float
    aborted: bool = False
    model_evals: int = 0  # (sequence x step) rows rolled out by the model


def _initial_actions(cfg: PlanConfig, f: WorldModel, z1, z_goal,
                     seed: int) -> np.ndarray:
    if cfg.init == "gaussian":
        return generator(seed, "gbp-init").standard_normal((cfg.horizon, f.d_a))
    if cfg.init == "initnet":
        arr = np.asarray(cfg.init_actions(z1, z_goal), dtype=np.float64)
    else:  # "fixed"
        arr = np.array(cfg.init_actions, dtype=np.float64)
    if arr.shape != (cfg.horizon, f.d_a):
        raise ValueError(f"{cfg.init} init shape {arr.shape} != ({cfg.horizon}, {f.d_a})")
    return arr


def gbp(f: WorldModel, z1: np.ndarray, z_goal: np.ndarray, cfg: PlanConfig,
        seed: int) -> PlanResult:
    """Iterate rollout -> goal loss -> gradient step on the action sequence.

    Returns the best-loss iterate (switchable to the last via return_best).
    Actions are clamped to [-a_max, a_max] after every update when
    clamp_actions is set and a_max is known. `seed` draws the "gaussian"
    init; the other inits ignore it.
    """
    t0 = time.perf_counter()
    H = cfg.horizon
    actions = _initial_actions(cfg, f, z1, z_goal, seed)
    clamp = cfg.clamp_actions and cfg.a_max is not None
    if clamp:
        actions = np.clip(actions, -cfg.a_max, cfg.a_max)
    opt = AdamState.zeros((H, f.d_a)) if cfg.optimizer == "adam" else None
    trace: list[float] = []
    best_loss = np.inf
    best_actions = actions.copy()
    last_actions = actions.copy()
    aborted = False
    for _ in range(cfg.iterations):
        if not np.all(np.isfinite(actions)):
            aborted = True
            break
        tape = dc.Tape()
        a_leaf = tape.leaf(actions)
        try:
            loss_node = goal_loss(cfg.loss, f, tape.constant(z1), a_leaf, z_goal)
            loss = float(loss_node.value)
            trace.append(loss)
            if not np.isfinite(loss):
                aborted = True
                break
            if loss < best_loss:
                best_loss = loss
                best_actions = actions.copy()
            (grads,) = dc.grad(loss_node, [a_leaf])
        except NumericFailure:
            aborted = True
            break
        if cfg.optimizer == "sgd":
            actions = dc.sgd_step(actions, grads, cfg.eta)
        else:
            actions, opt = dc.adam_step(actions, grads, opt, cfg.eta)
        if clamp:
            actions = np.clip(actions, -cfg.a_max, cfg.a_max)
        last_actions = actions.copy()
    chosen = best_actions if cfg.return_best else last_actions
    final = best_loss if cfg.return_best else (trace[-1] if trace else np.inf)
    return PlanResult(chosen, trace, time.perf_counter() - t0, len(trace),
                      float(final), aborted, H * len(trace))


def final_cost(f: WorldModel, z1, actions: np.ndarray, z_goal) -> float | np.ndarray:
    """Squared distance of the last rolled-out latent to the goal (NumPy path).

    A float for one sequence (H, d_a); for a batch (..., H, d_a), an array
    of one cost per sequence, from one batched rollout."""
    d = rollout_model(f, z1, actions)[..., -1, :] - z_goal
    if d.ndim == 1:
        return float(d @ d)
    return (d * d).sum(axis=-1)


@dataclass
class RefineConfig:
    """Per-candidate refinement inside GradCEM: `steps` Adam iterations of
    `gbp` at step size `eta` from each sample, keeping the last iterate."""

    steps: int = 2
    eta: float = 0.3

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("refine steps must be >= 0")


@dataclass
class CemConfig:
    """CEM, or GradCEM when `refine` is set."""

    horizon: int = 25
    n_pop: int = 300
    k_elite: int = 30
    iterations: int = 30
    sigma0: float = 1.0
    cov_mode: str = "full"  # "full" (with jitter) | "diagonal"
    jitter: float = 1e-6
    refine: RefineConfig | None = None

    def __post_init__(self):
        if not (1 <= self.k_elite <= self.n_pop):
            raise ValueError("need 1 <= k_elite <= n_pop")
        if self.horizon < 1 or self.iterations < 1:
            raise ValueError("horizon and iterations must be >= 1")
        if self.cov_mode not in COV_MODES:
            raise ValueError(f"unknown cov_mode {self.cov_mode!r}")


def _safe_cholesky(sigma: np.ndarray, jitter: float) -> np.ndarray | None:
    """Cholesky factor, escalating the jitter when the refit covariance is
    not positive definite. Returns None when every repair fails."""
    bump = 0.0
    for _ in range(6):
        try:
            return np.linalg.cholesky(sigma + bump * np.eye(len(sigma)))
        except np.linalg.LinAlgError:
            bump = jitter if bump == 0.0 else bump * 10.0
    return None


def cem(f: WorldModel, z1, z_goal, cfg: CemConfig, seed: int,
        trace_hook: Callable[[dict], None] | None = None) -> PlanResult:
    """Sample, rank by final-state cost, refit the Gaussian to the elites;
    the final mean is the plan.

    With `cfg.refine`, this is GradCEM: each sampled candidate first gets
    `refine.steps` Adam steps of `gbp` on the final-state loss, before cost
    evaluation and elite selection. With refine.steps == 0 it is bit for
    bit plain CEM under the same seed."""
    t0 = time.perf_counter()
    H, refine = cfg.horizon, cfg.refine
    d = H * f.d_a
    mu = np.zeros(d)
    sigma = (cfg.sigma0 ** 2) * np.eye(d)
    rng = generator(seed, "cem")
    trace: list[float] = []
    evals = H  # the final plan's cost
    for i in range(cfg.iterations):
        eps = rng.standard_normal((cfg.n_pop, d))
        if cfg.cov_mode == "diagonal":
            samples = mu + eps * np.sqrt(np.clip(np.diag(sigma), 0.0, None))
        else:
            chol = _safe_cholesky(sigma, cfg.jitter)
            if chol is None:
                samples = mu + eps * np.sqrt(np.clip(np.diag(sigma), 0.0, None))
            else:
                samples = mu + eps @ chol.T
        candidates = samples
        if refine is not None and refine.steps > 0:
            refined = [gbp(f, z1, z_goal, PlanConfig(
                horizon=H, iterations=refine.steps, optimizer="adam",
                eta=refine.eta, init="fixed", init_actions=c.reshape(H, f.d_a),
                clamp_actions=False, return_best=False), seed) for c in samples]
            candidates = np.stack([r.actions.ravel() for r in refined])
            evals += sum(r.model_evals for r in refined)
        costs = final_cost(f, z1, candidates.reshape(-1, H, f.d_a), z_goal)
        evals += cfg.n_pop * H
        elite_idx = np.argsort(costs, kind="stable")[: cfg.k_elite]
        elites = candidates[elite_idx]
        mu = elites.mean(axis=0)
        diffs = elites - mu
        if cfg.cov_mode == "full":
            sigma = diffs.T @ diffs / cfg.k_elite + cfg.jitter * np.eye(d)
        else:
            sigma = np.diag((diffs ** 2).mean(axis=0) + cfg.jitter)
        trace.append(float(costs[elite_idx[0]]))
        if trace_hook is not None:
            trace_hook({"iteration": i, "candidates": candidates, "costs": costs,
                        "elite_idx": elite_idx, "mu": mu.copy(),
                        "sigma": sigma.copy()})
    actions = mu.reshape(H, f.d_a)
    final = final_cost(f, z1, actions, z_goal)
    return PlanResult(actions, trace, time.perf_counter() - t0, len(trace), final,
                      model_evals=evals)


@dataclass
class MppiConfig:
    horizon: int = 25
    samples: int = 64
    sigma: float = 0.5
    temperature: float = 1.0
    iterations: int = 1

    def __post_init__(self):
        if min(self.horizon, self.samples, self.iterations) < 1:
            raise ValueError("horizon, samples and iterations must be >= 1")


def mppi(f: WorldModel, z1, z_goal, cfg: MppiConfig, seed: int) -> PlanResult:
    """Softmin-weighted perturbation averaging around a nominal sequence,
    starting from zero actions.

    Single-shot update by default (iterations=1); the execute-and-replan
    loop belongs to mpc().
    """
    t0 = time.perf_counter()
    H = cfg.horizon
    rng = generator(seed, "mppi")
    nom = np.zeros((H, f.d_a))
    trace: list[float] = []
    for _ in range(cfg.iterations):
        eps = cfg.sigma * rng.standard_normal((cfg.samples, H, f.d_a))
        costs = final_cost(f, z1, nom + eps, z_goal)
        shifted = costs - costs.min()
        w = np.exp(-shifted / cfg.temperature)
        w = w / w.sum()
        nom = nom + np.tensordot(w, eps, axes=1)
        trace.append(final_cost(f, z1, nom, z_goal))
    return PlanResult(nom, trace, time.perf_counter() - t0, len(trace), trace[-1],
                      model_evals=cfg.iterations * (cfg.samples + 1) * H)


Planner = PlanConfig | CemConfig | MppiConfig


def run_planner(f: WorldModel, z1, z_goal, planner: Planner,
                seed: int) -> PlanResult:
    """Plan with the function of the config's type. The functions are read
    as module globals at call time, so a wrapper patched over one of them
    sees every plan."""
    if isinstance(planner, PlanConfig):
        return gbp(f, z1, z_goal, planner, seed)
    if isinstance(planner, CemConfig):
        return cem(f, z1, z_goal, planner, seed)
    if isinstance(planner, MppiConfig):
        return mppi(f, z1, z_goal, planner, seed)
    raise TypeError(f"not a planner config: {type(planner).__name__}")


@dataclass
class MpcConfig:
    steps: int = 10
    k_exec: int | None = None  # None executes the full horizon
    plan_iters: int | None = 100  # per-step gbp iterations override
    eta: float | None = None  # per-step gbp step size override
    warm_start: bool = False


@dataclass
class MpcResult:
    success: bool
    executed: np.ndarray
    plan_results: list[PlanResult]
    final_state: envs.EnvState


def mpc(spec: envs.EnvSpec, f: WorldModel, enc: Encoder,
        task: envs.TaskInstance, planner: Planner, cfg: MpcConfig,
        seed: int = 0) -> MpcResult:
    """Plan, execute the first K actions in the simulator, re-encode, repeat.

    Success is credited at any visited state. `plan_iters`, `eta` and
    `warm_start` apply to a GBP planner only. The first MPC step uses the
    caller's seed unchanged, so (steps=1, k_exec=H) reproduces the open-loop
    plan exactly when plan_iters and eta are None and the start is not
    already a success (which ends the episode before any plan).
    """
    H = planner.horizon
    k_exec = H if cfg.k_exec is None else cfg.k_exec
    if not (1 <= k_exec <= H):
        raise ValueError("need 1 <= k_exec <= horizon")
    is_gbp = isinstance(planner, PlanConfig)
    if is_gbp:
        overrides = {"iterations": cfg.plan_iters, "eta": cfg.eta}
        planner = replace(planner, **{key: value for key, value in overrides.items()
                                      if value is not None})
    z_goal = encode(enc, task.goal_obs)
    s = task.start
    ok = envs.success(spec, s, task)
    executed: list[np.ndarray] = []
    results: list[PlanResult] = []
    warm: np.ndarray | None = None
    for k in range(cfg.steps):
        if ok:
            break
        z1 = encode(enc, envs.obs_of(spec, s))
        step_seed = seed if k == 0 else derive_seed(seed, "mpc-step", k)
        if warm is not None:
            planner = replace(planner, init="fixed", init_actions=warm)
        pr = run_planner(f, z1, z_goal, planner, step_seed)
        results.append(pr)
        for a in pr.actions[:k_exec]:
            s = envs.step(spec, s, a)
            executed.append(np.asarray(a, dtype=np.float64))
            if envs.success(spec, s, task):
                ok = True
                break
        if cfg.warm_start and is_gbp:
            tail = pr.actions[k_exec:]
            warm = np.vstack([tail, np.zeros((H - len(tail), f.d_a))])
    return MpcResult(ok, np.array(executed).reshape(-1, f.d_a), results, s)

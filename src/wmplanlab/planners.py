"""Test-time planners over a learned latent model.

A planner is its config: `PlanConfig` plans with GBP, `CemConfig` with CEM,
or with GradCEM (Bharadhwaj et al. 2020) when its `refine` is set, and
`MppiConfig` with MPPI. Each config holds its own horizon, every planner
function takes `(f, z1, z_goal, cfg, seed)`, and `run_planner` picks the
function by the config's type.

Gradient-based planning backpropagates the goal loss through a recursive
model rollout and updates one action sequence in place with SGD or Adam,
starting from a Gaussian draw of its seed or from the actions it is given
(GradCEM's samples, the MPC warm start, `landscape`'s shared start), and
clamping them to [-a_max, a_max] after each update (`math.inf` in GradCEM);
it is the only code in the lab that builds a tape, one per plan, and takes
each iteration's goal loss and gradient from one `rollout_nodes` node. The
buffers those nodes compute in are made once per plan, not once per
rollout: one `worldmodel.RolloutWorkspace` holds them with the start
latent, the goal and the goal loss's weights. A goal loss is a name
(`GOAL_LOSSES`) that a plan turns into its weights once.
CEM samples from a full-covariance Gaussian. The sampling planners score
their whole population in one batched NumPy
rollout per iteration (`final_cost` on an (N, H, d_a) array, one
`predict` call per step for all N sequences). That rollout runs in
float32, through a copy of the model's weights made once per plan
(`worldmodel._float32`), because only the ranking and weighting of
candidates read the population's costs (mixed precision as in
Micikevicius et al. 2018).
GBP takes each iteration's loss and action gradient from such a copy too,
because only its choice of iterate and its Adam step read them. Everything
else is float64: the sampling, CEM's elite mean and Cholesky refit, MPPI's
weighted update, GBP's actions, Adam state and clamp, and the cost of the
plan each planner returns (GBP rescores the iterate it returns), so every
cost a report holds is a float64 cost. GradCEM runs GBP from each CEM
sample, so its refinement steps are `gbp` calls on CEM's float32 copy,
still one sequence at a time on the tape; its refined candidates are
scored like CEM's. A model evaluation thus costs very different amounts
on the two paths, so wall-clock between the two families says nothing by
itself: read it next to `PlanResult.model_evals`, the (sequence x step)
rows each plan rolled out. The MPC harness replans from
re-encoded simulator states and executes the first K actions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffcore as dc
from . import envs
from .config import (COUNT, FLAT, NONNEG, NONNEG_NUMBER, POSITIVE, Checked,
                     check, one_of)
from .diffcore import AdamState, NumericFailure
from .encoder import Encoder, encode
from .rng import derive_seed, generator
from .worldmodel import (RolloutWorkspace, WorldModel, _float32, _rollout_loss,
                         rollout_model, rollout_nodes)


OPTIMIZERS = ("sgd", "adam")


def _exponential(base: float):
    def weights(H: int) -> np.ndarray:
        w = base ** np.arange(2, H + 2, dtype=np.float64)
        return w / w.sum()
    return weights


# a goal loss name -> its weights on z_2 .. z_{H+1} at horizon H, which sum to
# one (w_i = base^i for i = 2..H+1, normalised), or None for the final-state
# distance
GOAL_LOSSES = {"final": lambda H: None, "late-heavy": _exponential(2.0),
               "early-heavy": _exponential(0.5)}


@dataclass
class Descent(Checked):
    """The gradient descent of a GBP plan on its action sequence."""

    iterations: int = field(default=300, metadata=COUNT)
    optimizer: str = field(default="sgd", metadata=one_of(OPTIMIZERS))
    eta: float = field(default=1.0, metadata=POSITIVE)


@dataclass
class PlanConfig(Descent):
    """GBP. `loss` names a goal loss of GOAL_LOSSES. A plan starts from the
    (H, d_a) array `init_actions` when one is given, and otherwise from a
    Gaussian draw of its seed; it clamps to [-a_max, a_max], unbounded at
    `math.inf`. No config key sets `init_actions`, `a_max` or `return_best`;
    with `return_best` False, `gbp`'s `final_loss` is stale (see `gbp`)."""

    horizon: int = field(default=25, metadata=COUNT)
    loss: str = field(default="final", metadata=one_of(GOAL_LOSSES))
    init_actions: object = field(default=None, metadata={"key": None})
    a_max: float = field(default=math.inf, metadata={"key": None})
    return_best: bool = field(default=True, metadata={"key": None})


@dataclass
class PlanResult:
    """A plan and how it was found. `loss_trace` holds the cost each
    iteration scored: GBP's goal loss or the best population cost of a CEM
    iteration, both scored in float32, or the cost of MPPI's updated plan.
    `final_loss` is the float64 cost of `actions`."""

    actions: np.ndarray
    loss_trace: list[float]
    wall_clock: float
    iterations: int
    final_loss: float
    aborted: bool = False
    model_evals: int = 0  # (sequence x step) rows rolled out by the model


def _initial_actions(cfg: PlanConfig, f: WorldModel, seed: int) -> np.ndarray:
    if cfg.init_actions is None:
        return generator(seed, "gbp-init").standard_normal((cfg.horizon, f.d_a))
    arr = np.array(cfg.init_actions, dtype=np.float64)
    if arr.shape != (cfg.horizon, f.d_a):
        raise ValueError(f"init shape {arr.shape} != ({cfg.horizon}, {f.d_a})")
    return arr


def gbp(f: WorldModel, z1: np.ndarray, z_goal: np.ndarray, cfg: PlanConfig,
        seed: int) -> PlanResult:
    """Iterate rollout -> goal loss -> gradient step on the action sequence.

    Each iteration's goal loss and action gradient come from a float32 copy
    of `f` (`worldmodel._float32`, made once per plan, with the goal cast
    once); the actions, the Adam state, the clamp and the best iterate stay
    float64. Next to the copy the plan makes its one float32
    `worldmodel.RolloutWorkspace`, whose buffers every iteration's rollout
    and backward sweep reuse.
    Returns the iterate of least float32 loss with its float64 goal loss,
    computed once more on `f` by the node's forward
    (`worldmodel._rollout_loss`) on a float64 workspace of its own, made
    for that one rollout, and counted in `model_evals`. With
    `return_best` False it returns the actions after the last step with the
    float32 loss of the iterate before that step, the last one scored.
    GradCEM's refinement, the one caller that sets the flag, rescores its
    candidates with `final_cost`, so nothing reads that stale loss.
    Actions are clamped to [-a_max, a_max] after every update; at
    `a_max = math.inf` the clamp keeps every bit, -0.0 and NaN included.
    `seed` draws the initial actions unless `cfg.init_actions` gives
    them, which are copied and never changed. The plan owns one action
    array that the optimizer step and the clamp update in place, and one
    buffer the best iterate is copied into. The goal loss's weights, the
    start latent and the goal are made and checked (`dc.tensor`) once per
    plan, before the workspace that holds them; the start latent is an
    array, not a node. One tape holds the plan, and each iteration adds two
    nodes to it: a leaf holding the action array itself, checked once, and
    the `rollout_nodes` node whose only parent it is. A non-finite start
    latent or goal is a ValueError; non-finite actions, latents or
    gradients abort the plan.
    """
    t0 = time.perf_counter()
    H = cfg.horizon
    weights = GOAL_LOSSES[cfg.loss](H)
    scorer = _float32(f)
    tape = dc.Tape()
    z1 = dc.tensor(z1)
    z_goal = dc.tensor(z_goal)
    work = RolloutWorkspace(scorer, z1, z_goal.astype(np.float32), weights, H)
    actions = _initial_actions(cfg, f, seed)
    np.clip(actions, -cfg.a_max, cfg.a_max, out=actions)
    opt = AdamState.zeros((H, f.d_a)) if cfg.optimizer == "adam" else None
    trace: list[float] = []
    best_loss = np.inf
    # the optimizer steps and the clip write into `actions` in place, so the
    # iterate kept as best is copied into a buffer of its own
    best_actions = actions.copy()
    aborted = False
    # a diverging plan overflows float32 before it aborts; `aborted` says so
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.iterations):
            # checked before the rollout: a saturated tanh layer can turn an
            # infinite action into finite latents
            if not np.all(np.isfinite(actions)):
                aborted = True
                break
            # the leaf holds `actions` itself, checked just above, and is done
            # with before the optimizer writes into the array
            a_leaf = dc.Node(tape, actions, "leaf")
            try:
                loss_node = rollout_nodes(work, a_leaf)
                loss = float(loss_node.value)
                trace.append(loss)
                if not np.isfinite(loss):
                    aborted = True
                    break
                if loss < best_loss:
                    best_loss = loss
                    np.copyto(best_actions, actions)
                (grads,) = dc.grad(loss_node, [a_leaf])
            except NumericFailure:
                aborted = True
                break
            if cfg.optimizer == "sgd":
                dc.sgd_step(actions, grads, cfg.eta)
            else:
                dc.adam_step(actions, grads, opt, cfg.eta)
            np.clip(actions, -cfg.a_max, cfg.a_max, out=actions)
    chosen = best_actions if cfg.return_best else actions
    final = best_loss if cfg.return_best else (trace[-1] if trace else np.inf)
    evals = H * len(trace)
    if cfg.return_best and np.isfinite(best_loss):
        # the float32 loss ranked the iterates; the plan reports the float64
        # loss of the one it returns, from the forward the node runs
        final = _rollout_loss(RolloutWorkspace(f, z1, z_goal, weights, H), chosen)
        evals += H
    return PlanResult(chosen, trace, time.perf_counter() - t0, len(trace),
                      float(final), aborted, evals)


def final_cost(f: WorldModel, z1, actions: np.ndarray, z_goal) -> float | np.ndarray:
    """Squared distance of the last rolled-out latent to the goal (NumPy path).

    A float for one sequence (H, d_a); for a batch (..., H, d_a), an array
    of one cost per sequence, from one batched rollout. The rollout runs in
    the dtype of `f`'s weights (`rollout_model`); against a float64 goal,
    the distance is float64."""
    d = rollout_model(f, z1, actions)[..., -1, :] - z_goal
    if d.ndim == 1:
        return float(d @ d)
    return (d * d).sum(axis=-1)


@dataclass
class RefineConfig(Checked):
    """Per-candidate refinement inside GradCEM: `steps` Adam iterations of
    `gbp` at step size `eta` from each sample, keeping the last iterate."""

    steps: int = field(default=2, metadata=NONNEG | {"key": "refine_steps"})
    eta: float = field(default=0.3, metadata=POSITIVE | {"key": "refine_eta"})


@dataclass
class CemConfig:
    """CEM, or GradCEM when `refine` is set."""

    horizon: int = field(default=25, metadata=COUNT)
    n_pop: int = field(default=300, metadata=COUNT)
    k_elite: int = field(default=30, metadata=COUNT)
    iterations: int = field(default=30, metadata=COUNT)
    sigma0: float = field(default=1.0, metadata=POSITIVE)
    jitter: float = field(default=1e-6, metadata=NONNEG_NUMBER)
    refine: RefineConfig | None = field(default=None, metadata=FLAT)

    def __post_init__(self):
        check(self)
        if self.k_elite > self.n_pop:
            raise ValueError("need 1 <= k_elite <= n_pop")


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


def cem(f: WorldModel, z1, z_goal, cfg: CemConfig, seed: int) -> PlanResult:
    """Sample from a full-covariance Gaussian (its diagonal when every
    Cholesky repair fails), rank by final-state cost, refit the Gaussian to
    the elites; the final mean is the plan.

    With `cfg.refine`, this is GradCEM: each sampled candidate first gets
    `refine.steps` Adam steps of `gbp` on the final-state loss, before cost
    evaluation and elite selection. With refine.steps == 0 it is bit for
    bit plain CEM under the same seed.

    Each population is ranked by its float32 costs (`worldmodel._float32`);
    the refit and the plan's `final_loss` are float64."""
    t0 = time.perf_counter()
    H, refine = cfg.horizon, cfg.refine
    scorer = _float32(f)
    d = H * f.d_a
    mu = np.zeros(d)
    sigma = (cfg.sigma0 ** 2) * np.eye(d)
    rng = generator(seed, "cem")
    trace: list[float] = []
    evals = H  # the final plan's cost
    for _ in range(cfg.iterations):
        eps = rng.standard_normal((cfg.n_pop, d))
        chol = _safe_cholesky(sigma, cfg.jitter)
        if chol is None:  # sample from the diagonal
            samples = mu + eps * np.sqrt(np.clip(np.diag(sigma), 0.0, None))
        else:
            samples = mu + eps @ chol.T
        candidates = samples
        if refine is not None and refine.steps > 0:
            refined = [gbp(scorer, z1, z_goal, PlanConfig(
                horizon=H, iterations=refine.steps, optimizer="adam",
                eta=refine.eta, init_actions=c.reshape(H, f.d_a),
                return_best=False), seed) for c in samples]
            candidates = np.stack([r.actions.ravel() for r in refined])
            evals += sum(r.model_evals for r in refined)
        costs = final_cost(scorer, z1, candidates.reshape(-1, H, f.d_a), z_goal)
        evals += cfg.n_pop * H
        elite_idx = np.argsort(costs, kind="stable")[: cfg.k_elite]
        elites = candidates[elite_idx]
        mu = elites.mean(axis=0)
        diffs = elites - mu
        sigma = diffs.T @ diffs / cfg.k_elite + cfg.jitter * np.eye(d)
        trace.append(float(costs[elite_idx[0]]))
    actions = mu.reshape(H, f.d_a)
    final = final_cost(f, z1, actions, z_goal)
    return PlanResult(actions, trace, time.perf_counter() - t0, len(trace), final,
                      model_evals=evals)


@dataclass
class MppiConfig(Checked):
    horizon: int = field(default=25, metadata=COUNT)
    samples: int = field(default=64, metadata=COUNT)
    sigma: float = field(default=0.5, metadata=POSITIVE)
    temperature: float = field(default=1.0, metadata=POSITIVE)
    iterations: int = field(default=1, metadata=COUNT)


def mppi(f: WorldModel, z1, z_goal, cfg: MppiConfig, seed: int) -> PlanResult:
    """Softmin-weighted perturbation averaging around a nominal sequence,
    starting from zero actions.

    Single-shot update by default (iterations=1); the execute-and-replan
    loop belongs to mpc(). The samples are weighted by their float32 costs
    (`worldmodel._float32`); the update and each traced cost of the plan
    are float64.
    """
    t0 = time.perf_counter()
    H = cfg.horizon
    scorer = _float32(f)
    rng = generator(seed, "mppi")
    nom = np.zeros((H, f.d_a))
    trace: list[float] = []
    for _ in range(cfg.iterations):
        eps = cfg.sigma * rng.standard_normal((cfg.samples, H, f.d_a))
        costs = final_cost(scorer, z1, nom + eps, z_goal)
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
class MpcConfig(Checked):
    steps: int = field(default=10, metadata=COUNT)
    k_exec: int | None = field(default=None, metadata=COUNT)  # None executes the full horizon
    plan_iters: int | None = field(default=100, metadata=COUNT)  # per-step gbp iterations override
    eta: float | None = field(default=None, metadata=POSITIVE)  # per-step gbp step size override
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
    caller's seed unchanged, so (steps=1, k_exec=H) with plan_iters and eta
    None is the open-loop episode: one plan with the planner's own settings,
    executed whole. `evalreport.evaluate` runs open-loop mode as exactly
    this loop. A start that is already a success ends the episode before
    any plan, in either mode.
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
            planner = replace(planner, init_actions=warm)
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

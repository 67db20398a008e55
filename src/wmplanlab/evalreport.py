"""Experiment drivers: success grids, train-test gap, wall-clock, loss
landscapes, and a linear probe decoder for diagnostics.

Every grid is evaluated paired: all (model, planner) cells see the same
task instances and the same per-task planning seeds. Wall-clock timers
bracket planner calls only, and timing is emitted in a separate file so
the canonical report JSON is byte-reproducible from (config, seed).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import envs
from .data import Dataset
from .encoder import Encoder, encode
from .planners import (MpcConfig, PlanConfig, PlannerSpec, final_cost, gbp,
                       mpc, run_planner)
from .rng import derive_seed, generator
# rollout_model is not called here any more; the binding stays because
# perfbench's tracer test checks that it patches this module's copy
from .worldmodel import WorldModel, rollout_model, wm_error  # noqa: F401

REPORT_SCHEMA = "wmplanlab-report/1"


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class TaskRow:
    task_id: int
    success: bool
    plan_seconds: float
    final_loss: float


@dataclass
class Cell:
    model: str
    planner: str
    mode: str
    n_tasks: int
    successes: int
    success_rate: float
    wilson_lo: float
    wilson_hi: float
    mean_plan_seconds: float
    mean_trace: list[float]
    rows: list[TaskRow]


@dataclass
class EvalReport:
    schema: str
    mode: str
    n_tasks: int
    master_seed: int
    task_hash: str
    config_hash: str
    cells: list[Cell]


def _task_fingerprint(tasks: list[envs.TaskInstance]) -> str:
    h = hashlib.sha256()
    for t in tasks:
        h.update(np.ascontiguousarray(t.start.position).tobytes())
        h.update(np.ascontiguousarray(t.start.velocity).tobytes())
        h.update(np.ascontiguousarray(t.goal_obs).tobytes())
        h.update(str(t.horizon_gap).encode())
    return h.hexdigest()


def _draw_task(spec, data, horizon_gap, seed, task_index,
               predicate: Callable | None) -> envs.TaskInstance:
    for attempt in range(200):
        task_seed = derive_seed(seed, "task", task_index, attempt)
        task = envs.sample_task(spec, data, horizon_gap, task_seed)
        if predicate is None or predicate(task):
            return task
    raise ValueError("task predicate rejected 200 consecutive samples")


def _eval_cell(spec, enc, model, pspec, mode, task, plan_seed, mpc_cfg):
    if mode == "open-loop":
        z1 = encode(enc, envs.obs_of(spec, task.start))
        z_goal = encode(enc, task.goal_obs)
        pr = run_planner(model, z1, z_goal, pspec, plan_seed)
        s = task.start
        ok = envs.success(spec, s, task)
        for a in pr.actions:
            s = envs.step(spec, s, a)
            if envs.success(spec, s, task):
                ok = True
                break
        return ok, pr.wall_clock, pr.final_loss, list(pr.loss_trace)
    mr = mpc(spec, model, enc, task, pspec, mpc_cfg or MpcConfig(), seed=plan_seed)
    seconds = sum(p.wall_clock for p in mr.plan_results)
    final = mr.plan_results[-1].final_loss if mr.plan_results else float("nan")
    trace = [x for p in mr.plan_results for x in p.loss_trace]
    return mr.success, seconds, final, trace


_CTX: dict = {}


def _init_worker(ctx):
    _CTX.update(ctx)


def _eval_task(t: int):
    c = _CTX
    task = _draw_task(c["spec"], c["data"], c["horizon_gap"], c["seed"], t,
                      c["predicate"])
    plan_seed = derive_seed(c["seed"], "plan", t)
    out = {}
    for mname, model in c["models"].items():
        for pname, pspec in c["planners"].items():
            try:
                ok, secs, final, trace = _eval_cell(
                    c["spec"], c["enc"], model, pspec, c["mode"], task,
                    plan_seed, c["mpc_cfg"])
            except Exception as err:  # a failed task never aborts the grid
                warnings.warn(f"task {t} failed in cell ({mname}, {pname}): {err}")
                ok, secs, final, trace = False, float("nan"), float("nan"), []
            out[(mname, pname)] = (ok, secs, final, trace)
    return task, out


def evaluate(spec: envs.EnvSpec, enc: Encoder, models: dict[str, WorldModel],
             planners: dict[str, PlannerSpec], n_tasks: int, mode: str,
             seed: int, data: Dataset, horizon_gap: int = 25,
             mpc_cfg: MpcConfig | None = None, workers: int = 1,
             task_predicate: Callable | None = None,
             config_hash: str = "") -> EvalReport:
    """Paired success-rate grid over (model, planner) cells."""
    if mode not in ("open-loop", "mpc"):
        raise ValueError(f"unknown mode {mode!r}")
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    ctx = {"spec": spec, "enc": enc, "models": models, "planners": planners,
           "mode": mode, "seed": seed, "data": data, "horizon_gap": horizon_gap,
           "mpc_cfg": mpc_cfg, "predicate": task_predicate}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(ctx,)) as pool:
            tasks, results = zip(*pool.map(_eval_task, range(n_tasks)))
    else:
        _init_worker(ctx)
        tasks, results = zip(*map(_eval_task, range(n_tasks)))
    cells = []
    for mname in models:
        for pname in planners:
            rows = []
            traces = []
            for t in range(n_tasks):
                ok, secs, final, trace = results[t][(mname, pname)]
                rows.append(TaskRow(t, bool(ok), float(secs), float(final)))
                traces.append(trace)
            k = sum(r.success for r in rows)
            lo, hi = wilson_interval(k, n_tasks)
            min_len = min((len(tr) for tr in traces if tr), default=0)
            if min_len:
                stacked = np.array([tr[:min_len] for tr in traces if tr])
                mean_trace = [float(x) for x in stacked.mean(axis=0)]
            else:
                mean_trace = []
            secs = [r.plan_seconds for r in rows if np.isfinite(r.plan_seconds)]
            cells.append(Cell(
                model=mname, planner=pname, mode=mode, n_tasks=n_tasks,
                successes=int(k), success_rate=k / n_tasks,
                wilson_lo=float(lo), wilson_hi=float(hi),
                mean_plan_seconds=float(np.mean(secs)) if secs else float("nan"),
                mean_trace=mean_trace, rows=rows))
    return EvalReport(schema=REPORT_SCHEMA, mode=mode, n_tasks=n_tasks,
                      master_seed=seed, task_hash=_task_fingerprint(tasks),
                      config_hash=config_hash, cells=cells)


@dataclass
class GapReport:
    """Model error on expert actions vs freshly planned actions, paired
    over the same start/goal windows. difference = expert - planned."""

    n: int
    mean_expert: float
    mean_planned: float
    difference: float
    expert_errors: list[float]
    planned_errors: list[float]


def train_test_gap(f: WorldModel, spec: envs.EnvSpec, enc: Encoder,
                   data: Dataset, plan_cfg: PlanConfig, n: int = 50,
                   seed: int = 0) -> GapReport:
    H = plan_cfg.horizon
    eligible = [t for t in data.trajectories if len(t) >= H]
    if not eligible:
        raise ValueError(f"no trajectory long enough for horizon {H}")
    expert_errors = []
    planned_errors = []
    for j in range(n):
        rng = generator(seed, "gap", j)
        traj = eligible[int(rng.integers(len(eligible)))]
        off = int(rng.integers(len(traj) - H + 1))
        s1 = envs.state_of_obs(spec, traj.obs[off])
        z1 = encode(enc, traj.obs[off])
        z_goal = encode(enc, traj.obs[off + H])
        expert_actions = traj.actions[off:off + H]
        expert_errors.append(wm_error(f, enc, spec, s1, expert_actions).mean)
        pr = gbp(f, z1, z_goal, replace(plan_cfg, seed=derive_seed(seed, "gap-plan", j)))
        planned_errors.append(wm_error(f, enc, spec, s1, pr.actions).mean)
    me = float(np.mean(expert_errors))
    mp = float(np.mean(planned_errors))
    return GapReport(n=n, mean_expert=me, mean_planned=mp, difference=me - mp,
                     expert_errors=[float(x) for x in expert_errors],
                     planned_errors=[float(x) for x in planned_errors])


@dataclass
class LandscapeGrid:
    model: str
    resolution: int
    c_min: float
    c_max: float
    alpha: list  # flattened (H*d_a) direction
    beta: list
    values: list  # resolution x resolution rows (u index) by columns (v index)


@dataclass
class LandscapePair:
    baseline: LandscapeGrid
    adversarial: LandscapeGrid
    anchors: dict


@dataclass
class LandscapeTask:
    z1: np.ndarray
    z_goal: np.ndarray
    actions_gt: np.ndarray


def expert_window(data: Dataset, enc: Encoder, H: int, seed: int) -> LandscapeTask:
    eligible = [t for t in data.trajectories if len(t) >= H]
    if not eligible:
        raise ValueError(f"no trajectory long enough for horizon {H}")
    rng = generator(seed, "window")
    traj = eligible[int(rng.integers(len(eligible)))]
    off = int(rng.integers(len(traj) - H + 1))
    return LandscapeTask(z1=encode(enc, traj.obs[off]),
                         z_goal=encode(enc, traj.obs[off + H]),
                         actions_gt=traj.actions[off:off + H].copy())


def landscape(f_baseline: WorldModel, f_adversarial: WorldModel,
              task: LandscapeTask, plan_cfg: PlanConfig, resolution: int = 50,
              coeff_range: tuple[float, float] = (-1.25, 1.25),
              seed: int = 0, a_init: np.ndarray | None = None) -> LandscapePair:
    """Goal-loss grids over the plane spanned by the two planners' offsets.

    Axis directions: alpha = gbp(baseline) - a_gt and beta =
    gbp(adversarial) - a_gt, with both planner runs started from the same
    fixed initialization (drawn from `seed` unless given). Both grids are
    evaluated at literally identical action points a_gt + u*alpha + v*beta.
    """
    H = plan_cfg.horizon
    if task.actions_gt.shape[0] != H:
        raise ValueError("ground-truth action window does not match horizon")
    if a_init is None:
        a_init = generator(seed, "landscape-init").standard_normal(task.actions_gt.shape)
    cfg = replace(plan_cfg, init="fixed", init_actions=a_init, seed=seed)
    a_base = gbp(f_baseline, task.z1, task.z_goal, cfg).actions
    a_adv = gbp(f_adversarial, task.z1, task.z_goal, cfg).actions
    alpha = a_base - task.actions_gt
    beta = a_adv - task.actions_gt
    if np.linalg.norm(alpha) < 1e-8 or np.linalg.norm(beta) < 1e-8:
        warnings.warn("degenerate landscape axis (planner stayed at the "
                      "ground-truth actions)")
    coeffs = np.linspace(coeff_range[0], coeff_range[1], resolution)
    u = coeffs[:, None, None, None]
    v = coeffs[None, :, None, None]
    points = task.actions_gt + u * alpha + v * beta  # (R, R, H, d_a)
    grids = {}
    for name, model in (("baseline", f_baseline), ("adversarial", f_adversarial)):
        values = final_cost(model, task.z1, points, task.z_goal)
        grids[name] = LandscapeGrid(
            model=name, resolution=resolution, c_min=float(coeff_range[0]),
            c_max=float(coeff_range[1]), alpha=[float(x) for x in alpha.ravel()],
            beta=[float(x) for x in beta.ravel()],
            values=[[float(x) for x in row] for row in values])
    anchors = {
        "loss_gt_baseline": final_cost(f_baseline, task.z1, task.actions_gt, task.z_goal),
        "loss_gt_adversarial": final_cost(f_adversarial, task.z1, task.actions_gt, task.z_goal),
        "loss_gbp_baseline": final_cost(f_baseline, task.z1, a_base, task.z_goal),
        "loss_gbp_adversarial": final_cost(f_adversarial, task.z1, a_adv, task.z_goal),
    }
    return LandscapePair(grids["baseline"], grids["adversarial"], anchors)


def total_variation(values) -> float:
    """Sum of absolute adjacent-cell differences, the smoothness proxy."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.abs(np.diff(arr, axis=0)).sum() +
                 np.abs(np.diff(arr, axis=1)).sum())


@dataclass
class ProbeDecoder:
    W: np.ndarray  # (d_z, d_o)
    b: np.ndarray  # (d_o,)
    rmse: float


def train_probe_decoder(enc: Encoder, data: Dataset,
                        ridge: float = 1e-6) -> ProbeDecoder:
    """Least-squares linear map latent -> observation; ridge-regularized
    when the feature matrix is rank deficient."""
    obs = np.concatenate([t.obs for t in data.trajectories])
    Z = encode(enc, obs)
    X = np.hstack([Z, np.ones((len(Z), 1))])
    sol, _, rank, _ = np.linalg.lstsq(X, obs, rcond=None)
    if rank < X.shape[1]:
        A = X.T @ X + ridge * np.eye(X.shape[1])
        sol = np.linalg.solve(A, X.T @ obs)
    W, b = sol[:-1], sol[-1]
    pred = Z @ W + b
    rmse = float(np.sqrt(np.mean((pred - obs) ** 2)))
    return ProbeDecoder(W, b, rmse)


def decode(probe: ProbeDecoder, z: np.ndarray) -> np.ndarray:
    return np.asarray(z, dtype=np.float64) @ probe.W + probe.b


def decode_rollout_csv(probe: ProbeDecoder, latents: np.ndarray, path) -> None:
    dec = decode(probe, latents)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"obs_{i}" for i in range(dec.shape[1])])
        for t, row in enumerate(dec):
            writer.writerow([t] + [repr(float(x)) for x in row])


# ---------------------------------------------------------------------------
# report files


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def emit_report(report, outdir) -> list[str]:
    """Write JSON (+ separate timing), CSV rows, and grid files.

    Returns the list of file paths written. parse via load_report.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    if isinstance(report, EvalReport):
        body = asdict(report)
        timing = {"cells": []}
        for cell in body["cells"]:
            timing["cells"].append({
                "model": cell["model"], "planner": cell["planner"],
                "mean_plan_seconds": cell.pop("mean_plan_seconds"),
                "plan_seconds": [row.pop("plan_seconds") for row in cell["rows"]],
            })
        p = os.path.join(outdir, "report.json")
        with open(p, "w") as fh:
            fh.write(_canonical_json(body))
        written.append(p)
        p = os.path.join(outdir, "timing.json")
        with open(p, "w") as fh:
            fh.write(_canonical_json(timing))
        written.append(p)
        p = os.path.join(outdir, "report.csv")
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "planner", "mode", "task_id", "success",
                             "final_loss"])
            for cell in report.cells:
                for row in cell.rows:
                    writer.writerow([cell.model, cell.planner, cell.mode,
                                     row.task_id, int(row.success),
                                     repr(row.final_loss)])
        written.append(p)
    elif isinstance(report, GapReport):
        p = os.path.join(outdir, "gap.json")
        with open(p, "w") as fh:
            fh.write(_canonical_json(asdict(report)))
        written.append(p)
        p = os.path.join(outdir, "gap.csv")
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rollout_id", "expert_error", "planned_error"])
            for j, (e, q) in enumerate(zip(report.expert_errors, report.planned_errors)):
                writer.writerow([j, repr(e), repr(q)])
        written.append(p)
    elif isinstance(report, LandscapePair):
        p = os.path.join(outdir, "landscape.json")
        with open(p, "w") as fh:
            fh.write(_canonical_json(asdict(report)))
        written.append(p)
        for grid in (report.baseline, report.adversarial):
            p = os.path.join(outdir, f"landscape_{grid.model}.csv")
            coeffs = np.linspace(grid.c_min, grid.c_max, grid.resolution)
            with open(p, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["u", "v", "loss"])
                for i, u in enumerate(coeffs):
                    for j, v in enumerate(coeffs):
                        writer.writerow([repr(float(u)), repr(float(v)),
                                         repr(grid.values[i][j])])
            written.append(p)
    else:
        raise TypeError(f"cannot emit report of type {type(report).__name__}")
    return written


def load_report(outdir) -> EvalReport:
    with open(os.path.join(outdir, "report.json")) as fh:
        body = json.load(fh)
    with open(os.path.join(outdir, "timing.json")) as fh:
        timing = json.load(fh)
    cells = []
    for cell, tcell in zip(body["cells"], timing["cells"]):
        rows = [TaskRow(r["task_id"], bool(r["success"]), secs, r["final_loss"])
                for r, secs in zip(cell["rows"], tcell["plan_seconds"])]
        cells.append(Cell(
            model=cell["model"], planner=cell["planner"], mode=cell["mode"],
            n_tasks=cell["n_tasks"], successes=cell["successes"],
            success_rate=cell["success_rate"], wilson_lo=cell["wilson_lo"],
            wilson_hi=cell["wilson_hi"],
            mean_plan_seconds=tcell["mean_plan_seconds"],
            mean_trace=cell["mean_trace"], rows=rows))
    return EvalReport(schema=body["schema"], mode=body["mode"],
                      n_tasks=body["n_tasks"], master_seed=body["master_seed"],
                      task_hash=body["task_hash"],
                      config_hash=body["config_hash"], cells=cells)

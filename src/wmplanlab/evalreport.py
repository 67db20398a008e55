"""Experiment drivers: success grids, train-test gap, wall-clock and loss
landscapes.

Every grid is evaluated paired: all (model, planner) cells see the same
task instances and the same per-task planning seeds. The grid draws every
task before it plans any, then runs each task's episodes in one function
of its arguments, serially or on a process pool; the module keeps no
state between calls. Each cell of a task is one `planners.mpc` episode,
in open-loop mode too (one plan, executed whole), so the grid plans,
steps the simulator and encodes only inside that loop. The gap and the
landscapes score plans on expert windows (`data.Window`) drawn from the
dataset; the gap encodes the observations a plan visits (`envs.visit`).
Rows and cells hold deterministic values only: wall-clock, which brackets
planner calls only, is the report's `timing`, written to its own file, so
the canonical report JSON is byte-reproducible from (config, seed). `emit_report` hands each report's
JSON to `tensorio.write_json` and its rows to `tensorio.write_csv`.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from . import envs
from .data import Dataset, Window, sample_window
from .encoder import Encoder, encode
from .planners import MpcConfig, PlanConfig, Planner, final_cost, gbp, mpc
from .rng import derive_seed, generator
from .tensorio import read_json, write_csv, write_json
# rollout_model is not called here any more; the binding stays because
# perfbench's tracer test checks that it patches this module's copy
from .worldmodel import WorldModel, rollout_model, wm_error  # noqa: F401

REPORT_SCHEMA = "wmplanlab-report/1"
_COMPACT = (",", ":")  # the JSON separators of every report file
MODES = ("open-loop", "mpc")


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class NoCrossRoomTask(ValueError):
    """Every draw of a task that must cross rooms stayed in one room."""


@dataclass
class TaskRow:
    task_id: int
    success: bool
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
    # per cell: model, planner, the mean of its finite plan_seconds, and the
    # seconds each task's plans took (0.0 with no plan, NaN for a failed task)
    timing: list[dict]


def _task_fingerprint(tasks: list[envs.TaskInstance]) -> str:
    h = hashlib.sha256()
    for t in tasks:
        h.update(np.ascontiguousarray(t.start.position).tobytes())
        h.update(np.ascontiguousarray(t.start.velocity).tobytes())
        h.update(np.ascontiguousarray(t.goal_obs).tobytes())
        h.update(str(t.horizon_gap).encode())
    return h.hexdigest()


def _draw_task(spec, data, horizon_gap, seed, task_index,
               require_cross_room: bool) -> envs.TaskInstance:
    for attempt in range(200):
        task_seed = derive_seed(seed, "task", task_index, attempt)
        task = envs.sample_task(spec, data, horizon_gap, task_seed)
        if not require_cross_room or envs.cross_room(spec, task):
            return task
    raise NoCrossRoomTask("no cross-room task in 200 draws")


def _eval_task(spec, enc, models, planners, episode, seed, t: int,
               task: envs.TaskInstance) -> dict:
    """Per (model, planner) cell of task `t`: its row, its plans' seconds and
    their loss traces, one `mpc` episode each."""
    plan_seed = derive_seed(seed, "plan", t)
    out = {}
    for mname, model in models.items():
        for pname, planner in planners.items():
            try:
                mr = mpc(spec, model, enc, task, planner, episode, seed=plan_seed)
            except Exception as err:  # a failed task never aborts the grid
                warnings.warn(f"task {t} failed in cell ({mname}, {pname}): {err}")
                out[(mname, pname)] = TaskRow(t, False, float("nan")), float("nan"), []
                continue
            plans = mr.plan_results
            final = plans[-1].final_loss if plans else float("nan")
            out[(mname, pname)] = (TaskRow(t, mr.success, float(final)),
                                   float(sum(p.wall_clock for p in plans)),
                                   [x for p in plans for x in p.loss_trace])
    return out


def evaluate(spec: envs.EnvSpec, enc: Encoder, models: dict[str, WorldModel],
             planners: dict[str, Planner], n_tasks: int, mode: str,
             seed: int, data: Dataset, horizon_gap: int = 25,
             mpc_cfg: MpcConfig | None = None, workers: int = 1,
             require_cross_room: bool = False,
             config_hash: str = "") -> EvalReport:
    """Paired success-rate grid over (model, planner) cells, on tasks whose
    start and goal lie in different rooms if `require_cross_room` is set.

    Every cell of every task is one `planners.mpc` episode. MPC mode runs
    `mpc_cfg`; open-loop mode is the episode of one plan over the full
    horizon with the planner's own settings, `MpcConfig(steps=1,
    plan_iters=None)`, whose actions are all executed unless a visited
    state succeeds first. In either mode a task that starts inside its goal
    is a success with no plan: NaN final loss, no trace, 0 plan seconds.
    All `n_tasks` tasks are drawn before the first plan, so NoCrossRoomTask,
    raised if 200 draws find no task that crosses rooms, comes before any
    planning. With `workers` > 1 a process pool runs the tasks: each worker
    gets its task, its index and the env, encoder, models, planners and
    episode config, all plain data that pickles under any start method;
    the dataset stays in this process."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    episode = (MpcConfig(steps=1, plan_iters=None) if mode == "open-loop"
               else mpc_cfg or MpcConfig())
    tasks = [_draw_task(spec, data, horizon_gap, seed, t, require_cross_room)
             for t in range(n_tasks)]
    episodes = partial(_eval_task, spec, enc, models, planners, episode, seed)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(episodes, range(n_tasks), tasks))
    else:
        results = list(map(episodes, range(n_tasks), tasks))
    cells, timing = [], []
    for mname in models:
        for pname in planners:
            rows, secs, traces = zip(*(results[t][(mname, pname)]
                                       for t in range(n_tasks)))
            k = sum(r.success for r in rows)
            lo, hi = wilson_interval(k, n_tasks)
            min_len = min((len(tr) for tr in traces if tr), default=0)
            if min_len:
                stacked = np.array([tr[:min_len] for tr in traces if tr])
                mean_trace = [float(x) for x in stacked.mean(axis=0)]
            else:
                mean_trace = []
            cells.append(Cell(
                model=mname, planner=pname, mode=mode, n_tasks=n_tasks,
                successes=int(k), success_rate=k / n_tasks,
                wilson_lo=float(lo), wilson_hi=float(hi),
                mean_trace=mean_trace, rows=list(rows)))
            finite = [x for x in secs if np.isfinite(x)]
            mean = float(np.mean(finite)) if finite else float("nan")
            timing.append({"model": mname, "planner": pname,
                           "mean_plan_seconds": mean, "plan_seconds": list(secs)})
    return EvalReport(schema=REPORT_SCHEMA, mode=mode, n_tasks=n_tasks,
                      master_seed=seed, task_hash=_task_fingerprint(tasks),
                      config_hash=config_hash, cells=cells, timing=timing)


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
                   data: Dataset, plan_cfg: PlanConfig, n: int,
                   seed: int = 0) -> GapReport:
    """The paper's train-test gap over `n` expert windows of H steps:
    `wm_error` along the dataset's latents of each window against
    `wm_error` along the observations that a `gbp` plan between the
    window's end latents visits in the simulator, encoded once."""
    H = plan_cfg.horizon
    expert_errors = []
    planned_errors = []
    for j in range(n):
        window = sample_window(data, H, generator(seed, "gap", j))
        zs = window.latents
        expert_errors.append(wm_error(f, zs, window.actions).mean())
        pr = gbp(f, zs[0], zs[H], plan_cfg, derive_seed(seed, "gap-plan", j))
        visited = encode(enc, envs.visit(spec, window.obs[0], pr.actions))
        planned_errors.append(wm_error(f, visited, pr.actions).mean())
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


def landscape(f_baseline: WorldModel, f_adversarial: WorldModel,
              window: Window, plan_cfg: PlanConfig, resolution: int,
              coeff_range: tuple[float, float] = (-1.25, 1.25),
              seed: int = 0) -> LandscapePair:
    """Goal-loss grids over the plane spanned by the two planners' offsets,
    planned between the expert window's end latents.

    Axis directions: alpha = gbp(baseline) - a_gt and beta =
    gbp(adversarial) - a_gt, where a_gt are the window's actions, with both
    planner runs started from the same fixed initialization drawn from
    `seed`. Both grids are evaluated at literally identical action points
    a_gt + u*alpha + v*beta.
    """
    z1, z_goal, a_gt = window.latents[0], window.latents[-1], window.actions
    if len(a_gt) != plan_cfg.horizon:
        raise ValueError("ground-truth action window does not match horizon")
    a_init = generator(seed, "landscape-init").standard_normal(a_gt.shape)
    cfg = replace(plan_cfg, init_actions=a_init)
    a_base = gbp(f_baseline, z1, z_goal, cfg, seed).actions
    a_adv = gbp(f_adversarial, z1, z_goal, cfg, seed).actions
    alpha = a_base - a_gt
    beta = a_adv - a_gt
    if np.linalg.norm(alpha) < 1e-8 or np.linalg.norm(beta) < 1e-8:
        warnings.warn("degenerate landscape axis (planner stayed at the "
                      "ground-truth actions)")
    coeffs = np.linspace(coeff_range[0], coeff_range[1], resolution)
    u = coeffs[:, None, None, None]
    v = coeffs[None, :, None, None]
    points = a_gt + u * alpha + v * beta  # (R, R, H, d_a)
    grids = {}
    for name, model in (("baseline", f_baseline), ("adversarial", f_adversarial)):
        values = final_cost(model, z1, points, z_goal)
        grids[name] = LandscapeGrid(
            model=name, resolution=resolution, c_min=float(coeff_range[0]),
            c_max=float(coeff_range[1]), alpha=[float(x) for x in alpha.ravel()],
            beta=[float(x) for x in beta.ravel()],
            values=[[float(x) for x in row] for row in values])
    anchors = {
        "loss_gt_baseline": final_cost(f_baseline, z1, a_gt, z_goal),
        "loss_gt_adversarial": final_cost(f_adversarial, z1, a_gt, z_goal),
        "loss_gbp_baseline": final_cost(f_baseline, z1, a_base, z_goal),
        "loss_gbp_adversarial": final_cost(f_adversarial, z1, a_adv, z_goal),
    }
    return LandscapePair(grids["baseline"], grids["adversarial"], anchors)


def total_variation(values) -> float:
    """Sum of absolute adjacent-cell differences, the smoothness proxy."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.abs(np.diff(arr, axis=0)).sum() +
                 np.abs(np.diff(arr, axis=1)).sum())


# ---------------------------------------------------------------------------
# report files


def emit_report(report, outdir) -> None:
    """Write an `EvalReport` as report.json, timing.json and report.csv, a
    `GapReport` as gap.json and gap.csv, or a `LandscapePair` as
    landscape.json and one landscape_<model>.csv per grid, into `outdir`.
    Table cells keep their types: success as an int, floats by `repr`.
    `load_report` reads an `EvalReport` back."""
    os.makedirs(outdir, exist_ok=True)
    if isinstance(report, EvalReport):
        body = asdict(report)
        timing = {"cells": body.pop("timing")}
        write_json(os.path.join(outdir, "report.json"), body, separators=_COMPACT)
        write_json(os.path.join(outdir, "timing.json"), timing, separators=_COMPACT)
        write_csv(os.path.join(outdir, "report.csv"),
                  ["model", "planner", "mode", "task_id", "success", "final_loss"],
                  ([cell.model, cell.planner, cell.mode, row.task_id,
                    int(row.success), repr(row.final_loss)]
                   for cell in report.cells for row in cell.rows))
    elif isinstance(report, GapReport):
        write_json(os.path.join(outdir, "gap.json"), asdict(report), separators=_COMPACT)
        write_csv(os.path.join(outdir, "gap.csv"),
                  ["rollout_id", "expert_error", "planned_error"],
                  ([j, repr(e), repr(q)] for j, (e, q) in
                   enumerate(zip(report.expert_errors, report.planned_errors))))
    elif isinstance(report, LandscapePair):
        write_json(os.path.join(outdir, "landscape.json"), asdict(report), separators=_COMPACT)
        for grid in (report.baseline, report.adversarial):
            coeffs = np.linspace(grid.c_min, grid.c_max, grid.resolution).tolist()
            write_csv(os.path.join(outdir, f"landscape_{grid.model}.csv"),
                      ["u", "v", "loss"],
                      ([repr(u), repr(v), repr(grid.values[i][j])]
                       for i, u in enumerate(coeffs) for j, v in enumerate(coeffs)))
    else:
        raise TypeError(f"cannot emit report of type {type(report).__name__}")


def _nan(x):
    """A float field as JSON holds it: `write_json` writes NaN as null."""
    return float("nan") if x is None else x


def load_report(outdir) -> EvalReport:
    body = read_json(os.path.join(outdir, "report.json"))
    timing = read_json(os.path.join(outdir, "timing.json"))
    cells = [Cell(**{**cell, "mean_trace": [_nan(x) for x in cell["mean_trace"]],
                     "rows": [TaskRow(**{**row, "final_loss": _nan(row["final_loss"])})
                              for row in cell["rows"]]})
             for cell in body.pop("cells")]
    timing = [{**t, "mean_plan_seconds": _nan(t["mean_plan_seconds"]),
               "plan_seconds": [_nan(x) for x in t["plan_seconds"]]}
              for t in timing["cells"]]
    return EvalReport(**body, cells=cells, timing=timing)

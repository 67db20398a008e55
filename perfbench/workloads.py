"""Set-up and the three closed-loop workloads of the benchmark.

Every run first sets up: it runs the CLI pipeline gen-data -> train ->
finetune-adv -> finetune-online on the `wall-awm` preset scaled down with
`--set`, SETUP_PASSES times into the same directory, and checks that every
pass writes the same bytes. The last pass leaves the dataset and the
baseline and AWM (adversarially finetuned) checkpoints the planning
workloads use.

Then one workload runs its units back to back until the run's time is up;
each unit starts only after the previous one has finished:

- pipeline-train: one unit re-runs the whole set-up pipeline; its outputs
  must match the set-up's byte for byte.
- mpc-gbp: one unit is one MPC planning step of the preset `gbp_adam`
  planner (100 Adam iterations). Episodes alternate between the baseline
  and the AWM model on the same cross-room task, so successes are paired.
- plan-sampling: one unit is one cross-room task, planned open-loop by CEM
  300/30/30 and then run as an MPC episode with MPPI-64, on the baseline.

A planning run draws one cross-room task from its seed and plans it over
and over, so every repeat must give the same result as the first.

The program sees only inputs made from the run's seed: the config seed,
and the task drawn from the dataset that seed generates.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from wmplanlab import cli, data, encoder, envs, planners, worldmodel
from wmplanlab.rng import derive_seed

PRESET = "wall-awm"
# stage -> the SpeedReference kernel that resembles its hot loop
STAGES = {"gen-data": "interp", "train": "small", "finetune-adv": "large",
          "finetune-online": "small"}
WORKLOADS = ("pipeline-train", "mpc-gbp", "plan-sampling")
SETUP_PASSES = 3
# Median time of each SpeedReference kernel on a quiet 2-core host
# (Python 3.11, numpy 2.4, OpenBLAS on one thread); see SpeedReference.
REF_NOMINAL_S = {"small": 0.0033, "interp": 0.0033, "large": 0.0032}


@dataclass(frozen=True)
class Scale:
    """Sizes handed to the program through `--set`."""

    n_traj: int
    traj_len: int
    epochs: int
    adv_epochs: int
    adv_batch: int
    online_iterations: int
    online_plan_iterations: int
    online_finetune_steps: int
    overrides: tuple[str, ...] = ()  # further --set entries


FULL = Scale(n_traj=300, traj_len=50, epochs=3, adv_epochs=2, adv_batch=48,
             online_iterations=3, online_plan_iterations=100,
             online_finetune_steps=50)
# The smallest size that still runs every stage and layer; for tests.
TINY = Scale(n_traj=8, traj_len=30, epochs=1, adv_epochs=1, adv_batch=4,
             online_iterations=1, online_plan_iterations=3,
             online_finetune_steps=2,
             overrides=("model.hidden=[16]", "eval.mpc.steps=2",
                        "eval.mpc.plan_iters=3", "planners.cem.n_pop=12",
                        "planners.cem.k_elite=3", "planners.cem.iterations=2",
                        "planners.mppi.samples=8"))
SCALES = {"full": FULL, "tiny": TINY}


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports correct=false."""


# --------------------------------------------------------------------------
# timing


class SpeedReference:
    """Scales wall time by the host's momentary speed.

    The host shares its cores with other work, and its speed drifts by
    20-30 % within seconds, far more than the differences the benchmark
    must resolve. While a program call runs, an interval timer interrupts
    it every PERIOD_S and times a fixed kernel of the meter's own; the
    kernels call no wmplanlab code and touch no program state. Each
    stretch of the call between two kernel samples counts as its length *
    REF_NOMINAL_S / (mean of the two samples), and the kernel's own time is
    left out. A scaled second is thus a second on the host at a quiet
    moment.

    Contention slows interpreted code and large matrix products by
    different amounts, so each call names the kernel that resembles its
    hot loop: "small" (matmuls on single rows driven from Python, as on
    the tape and in per-candidate rollouts), "interp" (scalar float work
    on two-element arrays, as in env steps) or "large" (products of
    512-row matrices, as in the adversarial batches).

    Each call also starts after a full garbage collection, so that a
    collection of garbage left by earlier calls does not land, at random,
    inside the timed one.
    """

    PERIOD_S = 0.1

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        rng = np.random.default_rng(0)
        self._w = [0.1 * rng.standard_normal(s)
                   for s in ((66, 128), (128, 128), (128, 64))]
        self._x = rng.standard_normal((1, 66))
        self._xl = rng.standard_normal((512, 130))
        self._wl = 0.1 * rng.standard_normal((130, 128))
        self._kernel = self._small
        self._marks: list[tuple[float, float, float]] = []
        self._active = False
        self.samples: dict[str, list[float]] = {k: [] for k in REF_NOMINAL_S}

    def _small(self) -> float:
        w1, w2, w3 = self._w
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200):
            h = np.tanh(np.tanh(self._x @ w1) @ w2)
            g = (h @ w3 @ w3.T) * (1.0 - h * h)
            acc += float(g.sum())
            acc = sum({"i": i, "acc": acc}.values()) - i
        return time.perf_counter() - t0

    def _interp(self) -> float:
        t0 = time.perf_counter()
        q, a = np.array([0.3, 0.4]), np.array([0.01, -0.02])
        for _ in range(900):
            d = np.clip(a, -0.05, 0.05)
            x, y = float(q[0]) + float(d[0]), float(q[1]) + float(d[1])
            if x > 0.5 and y < 0.4:
                x = 0.5
            q = np.array([x % 1.0, y % 1.0])
        return time.perf_counter() - t0

    def _large(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            h = np.tanh(self._xl @ self._wl)
            h.T @ h
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            t = time.perf_counter()
            ref = self._kernel()
            self._marks.append((t, time.perf_counter() - t, ref))

    def call(self, kind: str, fn, *args):
        """(result, scaled seconds, raw seconds) of fn(*args), scaled by the
        kernel named `kind`; a disabled meter returns raw seconds twice."""
        if not self.enabled:
            t0 = time.perf_counter()
            result = fn(*args)
            raw = time.perf_counter() - t0
            return result, raw, raw
        gc.collect()
        self._kernel = getattr(self, f"_{kind}")
        self._marks = []
        first = self._kernel()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        last = self._kernel()
        nominal = REF_NOMINAL_S[kind]
        raw = scaled = 0.0
        t_prev, ref_prev = t0, first
        for t, cost, ref in self._marks + [(t1, 0.0, last)]:
            raw += t - t_prev
            scaled += (t - t_prev) * nominal / (0.5 * (ref_prev + ref))
            t_prev, ref_prev = t + cost, ref
        self.samples[kind] += [first] + [m[2] for m in self._marks] + [last]
        return result, scaled, raw


# --------------------------------------------------------------------------
# the pipeline: set-up, and the unit of pipeline-train


def _sets(scale: Scale, seed: int, work: str) -> list[str]:
    sets = [
        f"seed={seed}", f"out_dir={work}",
        f"dataset.path={work}/data", f"model.path={work}/model",
        f"finetune.adversarial.out_path={work}/model-adv",
        f"finetune.adversarial.perturbed_path={work}/data-adversarial",
        f"finetune.online.out_path={work}/model-owm",
        f"finetune.online.corrected_path={work}/data-corrected",
        f"dataset.n_traj={scale.n_traj}", f"dataset.traj_len={scale.traj_len}",
        f"model.train.epochs={scale.epochs}",
        f"finetune.adversarial.epochs={scale.adv_epochs}",
        f"finetune.adversarial.batch_size={scale.adv_batch}",
        f"finetune.online.iterations={scale.online_iterations}",
        f"finetune.online.plan_iterations={scale.online_plan_iterations}",
        f"finetune.online.finetune_steps={scale.online_finetune_steps}",
    ]
    return sets + list(scale.overrides)


def _argv(command: str, sets: list[str]) -> list[str]:
    argv = [command, "--preset", PRESET]
    for s in sets:
        argv += ["--set", s]
    return argv


def _tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


@dataclass
class PipelinePass:
    seconds: dict[str, float]  # scaled, per stage
    raw_s: float
    digest: str
    train_loss_final: float
    adv_loss_final: float

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())


def _final_epoch_loss(model_dir: str) -> float:
    with open(os.path.join(model_dir, "train_trace.json")) as fh:
        return float(json.load(fh)["epoch_losses"][-1])


def _run_stage(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"stage {argv[0]} exited with code {code}")


def pipeline_pass(scale: Scale, seed: int, work: str,
                  meter: SpeedReference) -> PipelinePass:
    """Run the four CLI stages into `work`, emptied first."""
    if os.path.exists(work):
        shutil.rmtree(work)
    sets = _sets(scale, seed, work)
    seconds, raw_s = {}, 0.0
    for stage, kind in STAGES.items():
        _, seconds[stage], raw = meter.call(kind, _run_stage, _argv(stage, sets))
        raw_s += raw
    return PipelinePass(seconds, raw_s, _tree_digest(work),
                        _final_epoch_loss(os.path.join(work, "model")),
                        _final_epoch_loss(os.path.join(work, "model-adv")))


def _check_checkpoint(path: str, d_z: int, d_a: int) -> None:
    model, _ = worldmodel.load_model(path)
    if (model.d_z, model.d_a) != (d_z, d_a):
        raise CheckFailed(f"{path}: dims ({model.d_z}, {model.d_a})")
    sizes = (d_z + d_a,) + tuple(model.hidden) + (d_z,)
    shapes = [s for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
              for s in ((fan_in, fan_out), (fan_out,))]
    if [w.shape for w in model.weights] != shapes:
        raise CheckFailed(f"{path}: weight shapes do not match model.json")
    if not all(np.all(np.isfinite(w)) for w in model.weights):
        raise CheckFailed(f"{path}: non-finite weights")


def check_pipeline_outputs(scale: Scale, work: str) -> None:
    """The dataset holds what was asked for; every checkpoint loads, has the
    configured shapes and finite weights."""
    dataset, manifest = data.load_dataset(os.path.join(work, "data"))
    if manifest["count"] != scale.n_traj or len(dataset) != scale.n_traj:
        raise CheckFailed("dataset does not hold the configured trajectories")
    if any(len(t.obs) != scale.traj_len for t in dataset.trajectories):
        raise CheckFailed("dataset trajectories have the wrong length")
    for name in ("model", "model-adv", "model-owm"):
        _check_checkpoint(os.path.join(work, name), 64, 2)


def stage_metrics(scale: Scale, passes: list[PipelinePass]) -> dict[str, float]:
    """Per-stage rates (medians over the passes) and the final losses."""
    n_trans = scale.n_traj * (scale.traj_len - 1)

    def rate(work: float, stage: str) -> float:
        return statistics.median(work / p.seconds[stage] for p in passes)

    return {
        "gen_transitions_per_s": rate(n_trans, "gen-data"),
        "train_transitions_per_s": rate(n_trans * scale.epochs, "train"),
        "adv_transitions_per_s": rate(n_trans * scale.adv_epochs, "finetune-adv"),
        "online_iters_per_s": rate(scale.online_iterations, "finetune-online"),
        "train_loss_final": passes[-1].train_loss_final,
        "adv_loss_final": passes[-1].adv_loss_final,
    }


# --------------------------------------------------------------------------
# planning context shared by mpc-gbp and plan-sampling


def _cross_room(spec: envs.EnvSpec, task: envs.TaskInstance) -> bool:
    door = spec.doors[0]
    return ((task.start.position[door.axis] - door.coord)
            * (task.goal_state.position[door.axis] - door.coord)) < 0


def draw_task(spec, dataset, horizon_gap: int, seed: int) -> envs.TaskInstance:
    """The first cross-room task drawn from the dataset."""
    for attempt in range(200):
        task = envs.sample_task(spec, dataset, horizon_gap,
                                derive_seed(seed, "bench-task", attempt))
        if _cross_room(spec, task):
            return task
    raise RuntimeError("no cross-room task in 200 draws")


def task_fingerprint(task: envs.TaskInstance) -> str:
    h = hashlib.sha256()
    for arr in (task.start.position, task.start.velocity, task.goal_obs):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class PlanningContext:
    spec: envs.EnvSpec
    enc: encoder.Encoder
    dataset: data.Dataset
    models: dict
    planners: dict
    mpc_cfg: planners.MpcConfig
    horizon_gap: int
    task: envs.TaskInstance
    plan_seed: int


def planning_context(scale: Scale, seed: int, work: str) -> PlanningContext:
    args = cli.build_parser().parse_args(_argv("eval", _sets(scale, seed, work)))
    cfg = cli.load_config(args)
    spec = cli.build_env(cfg)
    enc = cli.build_encoder(cfg, spec)
    raw, _ = data.load_dataset(cfg["dataset"]["path"])
    dataset = encoder.encode_dataset(enc, raw)
    models = {"baseline": worldmodel.load_model(cfg["model"]["path"])[0],
              "awm": worldmodel.load_model(
                  cfg["finetune"]["adversarial"]["out_path"])[0]}
    specs = {name: cli.build_planner(name, cfg["planners"][name], spec)
             for name in ("gbp_adam", "cem", "mppi")}
    m = cfg["eval"]["mpc"]
    mpc_cfg = planners.MpcConfig(steps=m["steps"], k_exec=m.get("k_exec"),
                                 plan_iters=m["plan_iters"], eta=m.get("eta"),
                                 warm_start=m.get("warm_start", False))
    gap = cfg["eval"]["horizon_gap"]
    return PlanningContext(spec, enc, dataset, models, specs, mpc_cfg, gap,
                           draw_task(spec, dataset, gap, seed),
                           derive_seed(seed, "bench-plan"))


def _replay_check(spec, task, mr: planners.MpcResult) -> None:
    """The executed actions, replayed in the simulator, reach the reported
    final state and success."""
    s = task.start
    ok = envs.success(spec, s, task)
    for a in mr.executed:
        s = envs.step(spec, s, a)
        ok = ok or envs.success(spec, s, task)
    if ok != mr.success or not np.array_equal(s.position, mr.final_state.position):
        raise CheckFailed("MPC result does not match its replayed actions")


# --------------------------------------------------------------------------
# units


@dataclass
class UnitResult:
    """What one unit did. `signature` must repeat exactly when the same
    unit runs again."""

    key: object  # units with equal keys do the same work
    seconds: float  # scaled
    raw_s: float
    unit_seconds: list[float]  # scaled, one entry per counted unit
    signature: tuple
    successes: list[bool] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    episodes: list = field(default_factory=list)  # (task, MpcResult)
    pipeline: PipelinePass | None = None


def _plan_signature(pr: planners.PlanResult) -> tuple:
    return (pr.final_loss, pr.iterations, pr.aborted,
            hashlib.sha256(np.ascontiguousarray(pr.actions).tobytes()).hexdigest())


def mpc_gbp_unit(ctx: PlanningContext, meter: SpeedReference, index: int) -> UnitResult:
    """An MPC episode on the baseline (even index) or the AWM model (odd)."""
    model = ("baseline", "awm")[index % 2]
    task = ctx.task
    mr, scaled, raw = meter.call("small", planners.mpc, ctx.spec, ctx.models[model],
                                 ctx.enc, task, ctx.planners["gbp_adam"], ctx.mpc_cfg,
                                 ctx.plan_seed)
    prs = mr.plan_results
    scale = scaled / raw
    return UnitResult(
        key=model, seconds=scaled, raw_s=raw,
        unit_seconds=[p.wall_clock * scale for p in prs],
        signature=(mr.success, tuple(_plan_signature(p) for p in prs)),
        successes=[mr.success], losses=[p.final_loss for p in prs],
        episodes=[(task, mr)])


def _cem_open_loop(ctx: PlanningContext):
    f, task = ctx.models["baseline"], ctx.task
    z1 = encoder.encode(ctx.enc, envs.obs_of(ctx.spec, task.start))
    z_goal = encoder.encode(ctx.enc, task.goal_obs)
    pr = planners.run_planner(f, z1, z_goal, ctx.planners["cem"], ctx.plan_seed)
    s = task.start
    ok = envs.success(ctx.spec, s, task)
    for a in pr.actions:
        s = envs.step(ctx.spec, s, a)
        if envs.success(ctx.spec, s, task):
            ok = True
            break
    return pr, ok


def plan_sampling_unit(ctx: PlanningContext, meter: SpeedReference,
                       index: int) -> UnitResult:
    """Open-loop CEM and its execution, then an MPC episode with MPPI."""
    task = ctx.task
    (pr, cem_ok), cem_s, cem_raw = meter.call("small", _cem_open_loop, ctx)
    mr, mppi_s, mppi_raw = meter.call("small", planners.mpc, ctx.spec,
                                      ctx.models["baseline"], ctx.enc, task,
                                      ctx.planners["mppi"], ctx.mpc_cfg, ctx.plan_seed)
    return UnitResult(
        key=0, seconds=cem_s + mppi_s, raw_s=cem_raw + mppi_raw,
        unit_seconds=[cem_s + mppi_s],
        signature=(cem_ok, _plan_signature(pr), mr.success,
                   tuple(_plan_signature(p) for p in mr.plan_results)),
        successes=[cem_ok, mr.success],
        losses=[pr.final_loss] + [p.final_loss for p in mr.plan_results],
        episodes=[(task, mr)])


# --------------------------------------------------------------------------
# a run


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    info: dict
    trace: object = None

    @property
    def correct(self) -> bool:
        return not self.problems


def _closed_loop(run_unit, seconds: float, count: int | None = None):
    """Run units 0, 1, 2, ... back to back until `seconds` of wall time
    have passed, or exactly `count` units when given.

    Returns (results, failures, wall seconds); a unit that raised is None
    in results and listed in failures. A failed check propagates."""
    results, failures = [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        try:
            results.append(run_unit(i))
        except CheckFailed:
            raise
        except Exception as err:  # a crash is a failed unit, never a failed plan
            traceback.print_exc(file=sys.stderr)
            failures.append((i, repr(err)))
            results.append(None)
        i += 1
        if (i >= count) if count is not None else time.perf_counter() - t0 >= seconds:
            break
    return results, failures, time.perf_counter() - t0


def _repeat_problems(units: list[UnitResult]) -> list[str]:
    first: dict = {}
    for u in units:
        if first.setdefault(u.key, u).signature != u.signature:
            return [f"unit {u.key!r} gave a different result when run again"]
    return []


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, scale: Scale, tmp_root: str,
        tracer_factory=None) -> RunResult:
    """Set up, then run `workload` for `seconds`.

    With `tracer_factory`, set-up runs once, and after the untraced loop
    the same units run again inside a tracer; they must give the same
    results.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    meter = SpeedReference()
    work = os.path.join(tmp_root, "pipeline")
    passes = [pipeline_pass(scale, seed, work, meter)
              for _ in range(1 if tracer_factory else SETUP_PASSES)]
    problems = []
    if len({p.digest for p in passes}) != 1:
        problems.append("set-up passes wrote different bytes")
    check_pipeline_outputs(scale, work)

    if workload == "pipeline-train":
        def run_unit(i):
            p = pipeline_pass(scale, seed, work, meter)
            return UnitResult(key=0, seconds=p.total_s, raw_s=p.raw_s,
                              unit_seconds=[p.total_s], signature=(p.digest,),
                              pipeline=p)
    else:
        ctx = planning_context(scale, seed, work)
        unit_fn = mpc_gbp_unit if workload == "mpc-gbp" else plan_sampling_unit

        def run_unit(i):
            return unit_fn(ctx, meter, i)

    units, failures, wall = _closed_loop(run_unit, seconds)
    ok_units = [u for u in units if u is not None]
    checked = list(ok_units)
    trace = None
    if tracer_factory is not None:
        trace = tracer_factory()
        meter.enabled = False
        with trace, trace.span(f"loop:{workload}"):
            traced, _, _ = _closed_loop(run_unit, 0, len(units))
        checked += [u for u in traced if u is not None]
    elif ok_units and len({u.key for u in ok_units}) == len(ok_units):
        checked.append(run_unit(0))  # no unit repeated within the time
    problems += _repeat_problems(checked)
    if workload == "pipeline-train":
        if any(u.signature != (passes[0].digest,) for u in checked):
            problems.append("a pipeline pass wrote different bytes than set-up")
        stage_passes = [u.pipeline for u in ok_units] or passes
    else:
        for u in checked:
            for task, mr in u.episodes:
                _replay_check(ctx.spec, task, mr)
        redrawn = draw_task(ctx.spec, ctx.dataset, ctx.horizon_gap, seed)
        if task_fingerprint(redrawn) != task_fingerprint(ctx.task):
            problems.append("the task changed between draws")
        stage_passes = passes

    failed = len(failures) + sum(not np.all(np.isfinite(u.losses)) for u in ok_units)
    metrics = {"setup_s": statistics.median(p.total_s for p in passes)}
    metrics.update(stage_metrics(scale, stage_passes))
    unit_seconds = [s for u in ok_units for s in u.unit_seconds]
    metrics["units_per_s"] = (len(unit_seconds) / sum(u.seconds for u in ok_units)
                              if unit_seconds else 0.0)
    metrics["unit_p50_s"] = statistics.median(unit_seconds) if unit_seconds else 0.0
    metrics["peak_rss_mb"] = _peak_rss_mb()
    successes = [s for u in ok_units for s in u.successes]
    info = {
        "units": len(unit_seconds), "wall_s": wall,
        "raw_s": sum(u.raw_s for u in ok_units),
        "scaled_s": sum(u.seconds for u in ok_units),
        "setup_raw_s": [p.raw_s for p in passes],
        "ref_kernel_s": {k: statistics.median(v) for k, v in meter.samples.items() if v},
        "success_rate": sum(successes) / len(successes) if successes else None,
        "plan_loss_p50": statistics.median(x for u in ok_units for x in u.losses)
        if workload != "pipeline-train" and ok_units else None,
        "failures": failures,
    }
    return RunResult(metrics, attempted=len(units), failed=failed,
                     problems=problems, info=info, trace=trace)

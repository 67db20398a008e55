"""Command-line entry point for reproducible experiment pipelines.

Commands: gen-data, train, finetune-online, finetune-adv, train-initnet,
eval, gap, landscape. Every command is a pure function of the config
file (or preset) and its `--set` overrides, the seed included; nothing is
read from the environment. Reports and checkpoints rerun byte-identically,
and `timing.json` is the only output that depends on the machine.
Besides `--config`, `--preset` and `--set`, the only flags are `eval
--workers` (how many processes run the tasks) and `gen-data --force` (may
overwrite a dataset directory); neither changes an output byte, so the
config hash that each output carries covers everything that decides it.
A key a section leaves out takes the default of the function or dataclass
it configures; the few keys whose callee has no default get theirs here.
Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import sys

from . import envs, evalreport, finetune, initnet, presets, worldmodel
from .data import Dataset, HorizonTooLong, load_dataset, save_dataset
from .diffcore import NumericFailure
from .encoder import (Encoder, encode_dataset, encoder_hash, make_identity,
                      make_random_fourier)
from .planners import (COV_MODES, OPTIMIZERS, CemConfig, GoalLossSpec, MpcConfig,
                       MppiConfig, PlanConfig, Planner, RefineConfig,
                       wgl_early_heavy, wgl_late_heavy)
from .rng import derive_seed
from .tensorio import write_json


class ConfigError(Exception):
    pass


# --------------------------------------------------------------------------
# config schema: every known key with a coarse type, or the frozenset of
# the strings it may take; unknown keys rejected

_ANY_KEY = "__any__"
_BY_KIND = "__by_kind__"  # the section's "kind" picks its schema
_COUNT = "__count__"  # an integer >= 1: the size of a loop that must run
_NONNEG = "__nonneg__"  # an integer >= 0: the size of a loop that may run no times
_WIDTHS = "__widths__"  # a list of integers >= 1: hidden layer widths
_POSITIVE = "__positive__"  # a number > 0: a step size or a temperature
_OPTIMIZER = frozenset(OPTIMIZERS)

_PLAN_KEYS = {"iterations": _COUNT, "optimizer": _OPTIMIZER, "eta": _POSITIVE}  # gbp's

_CEM_KEYS = {"kind": str, "horizon": _COUNT, "iterations": _COUNT, "n_pop": _COUNT,
             "k_elite": _COUNT, "sigma0": float, "cov_mode": frozenset(COV_MODES),
             "jitter": float}

_PLANNER_KEYS = {
    "gbp": {"kind": str, "horizon": _COUNT, **_PLAN_KEYS, "loss": str,
            "init": frozenset({"gaussian", "initnet"}), "clamp": bool,
            "return_best": bool, "initnet_path": str},
    "cem": _CEM_KEYS,
    "gradcem": {**_CEM_KEYS, "refine_steps": int, "refine_eta": _POSITIVE},
    "mppi": {"kind": str, "horizon": _COUNT, "iterations": _COUNT,
             "samples": _COUNT, "sigma": float, "temperature": _POSITIVE},
}

_SCHEMA = {
    "seed": int,
    "out_dir": str,
    "env": {"kind": str, "frameskip": _COUNT},
    "encoder": {"kind": str, "d_z": _COUNT, "sigma": float, "seed": int},
    "dataset": {"path": str, "n_traj": _COUNT, "traj_len": int,
                "policy": frozenset(envs.POLICIES)},
    "model": {"path": str, "hidden": _WIDTHS, "residual": bool,
              "train": {"epochs": _COUNT, "batch_size": _COUNT, "lr": _POSITIVE}},
    "finetune": {
        "adversarial": {"out_path": str, "lambda_a": float, "lambda_z": float,
                        "eps_a": (float, None), "eps_z": (float, None),
                        "alpha_a": (float, None), "alpha_z": (float, None),
                        "attack": frozenset(finetune.ATTACKS), "pgd_steps": _COUNT,
                        "radius_mode": frozenset(finetune.RADIUS_MODES),
                        "per_dimension_std": bool,
                        "epochs": _COUNT, "batch_size": _COUNT, "lr": _POSITIVE,
                        "dump_perturbed": bool, "perturbed_path": str},
        "online": {"out_path": str, "corrected_path": (str, None),
                   "iterations": _NONNEG, "plan_iterations": _COUNT, "horizon": _COUNT,
                   "mix_ratio": float, "lr": _POSITIVE, "finetune_steps": _NONNEG,
                   "batch_size": _COUNT, "plan_optimizer": _OPTIMIZER,
                   "plan_eta": _POSITIVE},
    },
    "initnet": {"path": str, "horizon": _COUNT, "lr": _POSITIVE,
                "iterations": (_COUNT, None)},
    "planners": {_ANY_KEY: {_BY_KIND: _PLANNER_KEYS}},
    "eval": {"out_path": str, "n_tasks": _COUNT,
             "mode": frozenset(evalreport.MODES), "horizon_gap": _COUNT,
             "models": {_ANY_KEY: str}, "planners": list,
             "mpc": {"steps": _COUNT, "k_exec": (_COUNT, None),
                     "plan_iters": (_COUNT, None), "eta": (_POSITIVE, None),
                     "warm_start": bool},
             "require_cross_room": bool},
    "gap": {"out_path": str, "n": _COUNT, "horizon": _COUNT,
            "models": {_ANY_KEY: str}, "plan": _PLAN_KEYS},
    "landscape": {"out_path": str, "baseline": str, "adversarial": str,
                  "n_tasks": _COUNT, "resolution": _COUNT, "c_min": float,
                  "c_max": float, "horizon": _COUNT, "plan": _PLAN_KEYS},
}


def _check_type(value, expect, path: str) -> None:
    if isinstance(expect, tuple):  # (kind, None): the callee also takes None
        if value is None:
            return
        expect = expect[0]
    if isinstance(expect, frozenset):
        if not isinstance(value, str) or value not in expect:
            raise ConfigError(f"{path}: expected one of {sorted(expect)}, "
                              f"got {value!r}")
    elif expect is float or expect == _POSITIVE:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected number, got {value!r}")
        if expect == _POSITIVE and not value > 0:
            raise ConfigError(f"{path}: expected a number > 0, got {value!r}")
    elif expect is int or expect in (_COUNT, _NONNEG):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected integer, got {value!r}")
        low = {_COUNT: 1, _NONNEG: 0}.get(expect)
        if low is not None and value < low:
            raise ConfigError(f"{path}: expected an integer >= {low}, got {value!r}")
    elif expect == _WIDTHS:
        if not (isinstance(value, list) and all(
                isinstance(v, int) and not isinstance(v, bool) and v >= 1
                for v in value)):
            raise ConfigError(f"{path}: expected a list of integers >= 1, "
                              f"got {value!r}")
    elif not isinstance(value, expect):
        raise ConfigError(f"{path}: expected {expect.__name__}, got {value!r}")


def validate_config(cfg: dict, schema: dict | None = None, path: str = "") -> None:
    """Reject unknown keys and badly typed values, naming the field path."""
    schema = _SCHEMA if schema is None else schema
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    if _BY_KIND in schema:
        kind = cfg.get("kind")
        if not isinstance(kind, str) or kind not in schema[_BY_KIND]:
            raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
        schema = schema[_BY_KIND][kind]
    for key, value in cfg.items():
        sub = schema.get(key, schema.get(_ANY_KEY))
        here = f"{path}.{key}" if path else key
        if sub is None:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(sub, dict):
            validate_config(value, sub, here)
        else:
            _check_type(value, sub, here)


def config_hash(cfg: dict) -> str:
    text = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _set_override(cfg: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"--set expects key=value, got {spec!r}")
    key, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key!r} crosses a non-object")
    node[parts[-1]] = value


def load_config(args) -> dict:
    if args.preset:
        try:
            cfg = presets.get_preset(args.preset)
        except KeyError as err:
            raise ConfigError(str(err)) from err
    elif args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            cfg = json.load(fh)
    else:
        raise ConfigError("provide --config FILE or --preset NAME")
    for spec in args.set or []:
        _set_override(cfg, spec)
    validate_config(cfg)
    if "seed" not in cfg:
        raise ConfigError("config must set an explicit seed")
    return cfg


# --------------------------------------------------------------------------
# builders


def _need(cfg: dict, *path: str):
    node = cfg
    for part in path:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"missing config section: {'.'.join(path)}")
        node = node[part]
    return node


def _settings(section: dict, keys, **renamed) -> dict:
    """The entries of `section` named in `keys` (key names, or a dataclass
    whose fields name them), plus each `param=key` of `renamed` that the
    section sets, as keyword arguments for the callee they configure.
    Whatever the section leaves out keeps the callee's own default."""
    if dataclasses.is_dataclass(keys):
        keys = [f.name for f in dataclasses.fields(keys)]
    out = {key: section[key] for key in keys if key in section}
    out.update((param, section[key]) for param, key in renamed.items()
               if key in section)
    return out


def _build(where: str, make, **settings):
    """`make(**settings)`, a config object; settings it rejects (a
    ValueError) are a config error naming the section `where`."""
    try:
        return make(**settings)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def build_env(cfg: dict) -> envs.EnvSpec:
    section = _need(cfg, "env")
    kind = section.get("kind", "wall2d")
    settings = _settings(section, ["frameskip"])
    if kind == "wall2d":
        return envs.wall2d_spec(**settings)
    if kind == "pointmass":
        return envs.pointmass_spec(**settings)
    raise ConfigError(f"env.kind: unknown environment {kind!r}")


def build_encoder(cfg: dict, spec: envs.EnvSpec) -> Encoder:
    section = _need(cfg, "encoder")
    kind = section.get("kind", "random-fourier")
    if kind == "identity":
        return make_identity(spec.obs_dim)
    if kind == "random-fourier":
        return _build("encoder", make_random_fourier, d_o=spec.obs_dim,
                      **_settings(section, ["d_z", "sigma", "seed"]))
    raise ConfigError(f"encoder.kind: unknown encoder {kind!r}")


def _build_goal_loss(name: str, horizon: int) -> GoalLossSpec:
    if name == "final":
        return GoalLossSpec()
    if name == "late-heavy":
        return wgl_late_heavy(horizon)
    if name == "early-heavy":
        return wgl_early_heavy(horizon)
    raise ConfigError(f"unknown goal loss {name!r}")


def build_planner(name: str, section: dict, spec: envs.EnvSpec,
                  enc: Encoder | None = None) -> Planner:
    """The planner config of section `planners.<name>`; settings the config
    rejects are a config error. A `gbp` init net must fit the planner's
    horizon and action space, and, given the encoder `enc`, read its
    latents and have been trained under it."""
    kind, key = section.get("kind"), f"planners.{name}"
    if kind not in _PLANNER_KEYS:
        raise ConfigError(f"{key}.kind: unknown kind {kind!r}")
    if kind == "mppi":
        return _build(key, MppiConfig, **_settings(section, MppiConfig))
    if kind != "gbp":  # cem, or gradcem with its refinement
        refine = None
        if kind == "gradcem":
            refine = _build(key, RefineConfig, **_settings(
                section, [], steps="refine_steps", eta="refine_eta"))
        return _build(key, CemConfig, **_settings(section, CemConfig),
                      refine=refine)
    settings = _settings(section, PlanConfig, clamp_actions="clamp")
    loss = settings.pop("loss", None)  # a name; the plan holds its spec
    plan = _build(key, PlanConfig, **settings, a_max=spec.a_max)
    if "loss" in section:
        plan.loss = _build_goal_loss(loss, plan.horizon)
    if plan.init == "initnet":
        path = section.get("initnet_path")
        if not path:
            raise ConfigError(f"planners.{name}.initnet_path missing")
        net, meta = _load_checkpoint(initnet.load_initnet, path)
        where = f"planners.{name}.initnet_path: init net {path}"
        if (net.horizon, net.d_a) != (plan.horizon, spec.action_dim):
            raise ConfigError(
                f"{where} proposes (horizon {net.horizon}, d_a {net.d_a}), "
                f"the planner needs (horizon {plan.horizon}, "
                f"d_a {spec.action_dim})")
        if enc is not None:
            if net.d_z != enc.d_z:
                raise ConfigError(f"{where} reads d_z {net.d_z}, the "
                                  f"encoder writes d_z {enc.d_z}")
            mismatch = _encoder_mismatch(meta, enc)
            if mismatch:
                raise ConfigError(f"{where}: {mismatch}")
        plan.init_actions = initnet.as_planner_init(net)
    return plan


def _inputs(cfg: dict) -> tuple[envs.EnvSpec, Encoder, Dataset]:
    """The env, the encoder and the encoded dataset at `dataset.path`, which
    must hold the observations `gen-data` wrote under this env."""
    spec = build_env(cfg)
    enc = build_encoder(cfg, spec)
    path = _need(cfg, "dataset", "path")
    if not os.path.isdir(path):
        raise ConfigError(f"dataset directory not found: {path}")
    try:
        data, manifest = load_dataset(path)
    except ValueError as err:
        raise ConfigError(f"dataset {path}: {err}") from err
    if manifest["content"] != "obs":
        raise ConfigError(f"dataset {path} holds latents, not observations "
                          "(dataset.path names a gen-data output)")
    recorded = manifest.get("env")
    if recorded is not None:
        configured = envs.spec_to_dict(spec)
        differ = [key for key in configured if recorded.get(key) != configured[key]]
        if differ:
            raise ConfigError(f"dataset {path}: generated under another env "
                              f"({', '.join(differ)} differ from the config)")
    return spec, enc, encode_dataset(enc, data)


def _load_checkpoint(load, path: str):
    """`load(path)`, with a missing or damaged checkpoint as a config error."""
    if not path or not os.path.isdir(path):
        raise ConfigError(f"model checkpoint not found: {path}")
    try:
        return load(path)
    except ValueError as err:
        raise ConfigError(f"checkpoint {path}: {err}") from err


def _encoder_mismatch(meta: dict, enc: Encoder) -> str | None:
    """Why a checkpoint with this `meta` does not fit `enc`: it records
    training under another encoder. None if it fits or records none."""
    trained_under = meta.get("encoder_hash")
    if trained_under is None or trained_under == encoder_hash(enc):
        return None
    return (f"trained under another encoder (encoder_hash {trained_under[:12]}, "
            f"configured {encoder_hash(enc)[:12]})")


def _load_model(path: str, enc: Encoder):
    """A world model checkpoint, rejected if it records training under
    another encoder than `enc`."""
    model, meta = _load_checkpoint(worldmodel.load_model, path)
    mismatch = _encoder_mismatch(meta, enc)
    if mismatch:
        raise ConfigError(f"checkpoint {path}: {mismatch}")
    return model


def _save_trained(out: str, cfg: dict, enc: Encoder, result, **meta) -> None:
    """The checkpoint of a trained world model with its `meta`, its
    `train_trace.json` (the batch losses, and the epoch losses where the
    result keeps some) and its run manifest."""
    meta = {"encoder_hash": encoder_hash(enc), "config_hash": config_hash(cfg),
            **meta}
    worldmodel.save_model(out, result.model, meta)
    trace = {"batch_losses": result.batch_losses}
    if getattr(result, "epoch_losses", None):
        trace["epoch_losses"] = result.epoch_losses
    write_json(os.path.join(out, "train_trace.json"), trace)
    _write_run_manifest(out, cfg, enc)


def _write_run_manifest(outdir: str, cfg: dict, enc: Encoder | None,
                        extra: dict | None = None) -> None:
    os.makedirs(outdir, exist_ok=True)
    manifest = {"config_hash": config_hash(cfg), "seed": cfg["seed"]}
    if enc is not None:
        manifest["encoder_hash"] = encoder_hash(enc)
    manifest.update(extra or {})
    write_json(os.path.join(outdir, "run.json"), manifest, indent=2)


# --------------------------------------------------------------------------
# commands


def cmd_gen_data(cfg: dict, args) -> int:
    spec = build_env(cfg)
    section = _need(cfg, "dataset")
    path = section["path"]
    if os.path.isdir(path) and os.listdir(path) and not args.force:
        raise ConfigError(f"dataset directory {path} is not empty "
                          "(use --force to overwrite)")
    traj_len = section.get("traj_len", 50)
    if traj_len < 2:  # a trajectory needs a start and one step
        raise ConfigError(f"dataset.traj_len: expected an integer >= 2, got {traj_len!r}")
    seed = derive_seed(cfg["seed"], "dataset")
    data = envs.generate_dataset(spec, section.get("n_traj", 100), traj_len,
                                 section.get("policy", "random"), seed)
    save_dataset(path, data, env=envs.spec_to_dict(spec), seed=seed)
    _write_run_manifest(path, cfg, None, {"n_traj": len(data)})
    print(f"wrote {len(data)} trajectories to {path}")
    return 0


def cmd_train(cfg: dict, args) -> int:
    spec, enc, data = _inputs(cfg)
    section = _need(cfg, "model")
    train = section.get("train", {})
    model = worldmodel.init_world_model(
        enc.d_z, spec.action_dim, **_settings(section, ["hidden", "residual"]),
        seed=derive_seed(cfg["seed"], "model-init"))
    result = worldmodel.train_teacher_forcing(
        model, data, **_settings(train, ["epochs", "batch_size", "lr"]),
        seed=derive_seed(cfg["seed"], "train"))
    _save_trained(section["path"], cfg, enc, result, train=train)
    print(f"trained model -> {section['path']} "
          f"(final epoch loss {result.epoch_losses[-1]:.6g})")
    return 0


def cmd_finetune_adv(cfg: dict, args) -> int:
    spec, enc, data = _inputs(cfg)
    model = _load_model(_need(cfg, "model", "path"), enc)
    section = _need(cfg, "finetune", "adversarial")
    pcfg = _build("finetune.adversarial", finetune.PerturbationConfig,
                  **_settings(section, finetune.PerturbationConfig))
    result = finetune.adversarial_wm(
        model, data, pcfg,
        **_settings(section, ["epochs", "batch_size", "lr"],
                    keep_perturbed="dump_perturbed"),
        seed=derive_seed(cfg["seed"], "finetune-adv"))
    out = section["out_path"]
    _save_trained(out, cfg, enc, result, finetune="adversarial")
    if result.perturbed is not None:
        save_dataset(section.get("perturbed_path", os.path.join(out, "perturbed")),
                     result.perturbed, env=envs.spec_to_dict(spec), seed=cfg["seed"])
    print(f"adversarial finetune -> {out} "
          f"(final loss {result.batch_losses[-1]:.6g})")
    return 0


def cmd_finetune_online(cfg: dict, args) -> int:
    spec, enc, data = _inputs(cfg)
    model = _load_model(_need(cfg, "model", "path"), enc)
    section = _need(cfg, "finetune", "online")
    ocfg = _build("finetune.online", finetune.OnlineConfig,
                  **_settings(section, finetune.OnlineConfig))
    result = finetune.online_wm(model, spec, enc, data, ocfg,
                                seed=derive_seed(cfg["seed"], "finetune-online"))
    out = section["out_path"]
    _save_trained(out, cfg, enc, result, finetune="online")
    corrected_path = section.get("corrected_path")
    if corrected_path and len(result.corrected):
        save_dataset(corrected_path, result.corrected,
                     env=envs.spec_to_dict(spec), seed=cfg["seed"])
    print(f"online finetune -> {out} ({len(result.corrected)} corrected trajectories)")
    return 0


def cmd_train_initnet(cfg: dict, args) -> int:
    spec, enc, data = _inputs(cfg)
    section = _need(cfg, "initnet")
    result = initnet.train_initnet(
        data, section.get("horizon", 25), **_settings(section, ["iterations", "lr"]),
        seed=derive_seed(cfg["seed"], "initnet"), a_max=spec.a_max)
    meta = {"encoder_hash": encoder_hash(enc), "config_hash": config_hash(cfg)}
    initnet.save_initnet(section["path"], result.net, meta)
    _write_run_manifest(section["path"], cfg, enc)
    print(f"trained initnet -> {section['path']} "
          f"(final loss {result.losses[-1]:.6g})")
    return 0


def _cross_room_predicate(spec: envs.EnvSpec):
    door = spec.doors[0]

    def predicate(task: envs.TaskInstance) -> bool:
        return (task.start.position[door.axis] - door.coord) * \
            (task.goal_state.position[door.axis] - door.coord) < 0

    return predicate


def cmd_eval(cfg: dict, args) -> int:
    spec, enc, data = _inputs(cfg)
    section = _need(cfg, "eval")
    models = {name: _load_model(path, enc)
              for name, path in section.get("models", {}).items()}
    if not models:
        raise ConfigError("eval.models names no checkpoints")
    planner_cfgs = cfg.get("planners", {})
    planners = {}
    for name in section.get("planners", list(planner_cfgs)):
        if name not in planner_cfgs:
            raise ConfigError(f"eval.planners references unknown planner {name!r}")
        planners[name] = build_planner(name, planner_cfgs[name], spec, enc)
    if not planners:
        raise ConfigError("eval selected no planners")
    mode = section.get("mode", "mpc")
    mpc_cfg = MpcConfig(**_settings(section.get("mpc", {}), MpcConfig))
    short = [name for name, p in planners.items() if p.horizon < (mpc_cfg.k_exec or 0)]
    if mode == "mpc" and short:
        raise ConfigError(f"eval.mpc.k_exec {mpc_cfg.k_exec} is longer than the "
                          f"horizon of planner(s) {', '.join(short)}")
    predicate = _cross_room_predicate(spec) if section.get("require_cross_room") else None
    report = evalreport.evaluate(
        spec, enc, models, planners, n_tasks=section.get("n_tasks", 100),
        mode=mode, seed=cfg["seed"], data=data,
        **_settings(section, ["horizon_gap"]), mpc_cfg=mpc_cfg,
        workers=args.workers, task_predicate=predicate,
        config_hash=config_hash(cfg))
    out = section["out_path"]
    evalreport.emit_report(report, out)
    _write_run_manifest(out, cfg, enc)
    for cell in report.cells:
        print(f"{cell.model:>14s} x {cell.planner:<10s} [{cell.mode}] "
              f"success {cell.success_rate:6.1%} "
              f"({cell.wilson_lo:.2f}-{cell.wilson_hi:.2f}) "
              f"plan {cell.mean_plan_seconds:.3f}s")
    return 0


def cmd_gap(cfg: dict, args) -> int:
    spec, enc, data = _inputs(cfg)
    section = _need(cfg, "gap")
    plan_cfg = PlanConfig(**_settings(section, ["horizon"]),
                          **_settings(section.get("plan", {}), PlanConfig),
                          a_max=spec.a_max)
    out_root = section["out_path"]
    for name, path in section.get("models", {}).items():
        model = _load_model(path, enc)
        report = evalreport.train_test_gap(
            model, spec, enc, data, plan_cfg, **_settings(section, ["n"]),
            seed=derive_seed(cfg["seed"], "gap", name))
        outdir = os.path.join(out_root, name)
        evalreport.emit_report(report, outdir)
        _write_run_manifest(outdir, cfg, enc)
        print(f"{name:>14s} gap: expert {report.mean_expert:.6g} "
              f"planned {report.mean_planned:.6g} "
              f"difference {report.difference:.6g}")
    return 0


def cmd_landscape(cfg: dict, args) -> int:
    spec, enc, data = _inputs(cfg)
    section = _need(cfg, "landscape")
    f_base = _load_model(section.get("baseline"), enc)
    f_adv = _load_model(section.get("adversarial"), enc)
    # the landscape plans with Adam at 1e-3, not PlanConfig's SGD at 1.0
    plan = {"optimizer": "adam", "eta": 1e-3, **section.get("plan", {})}
    plan_cfg = PlanConfig(**_settings(section, ["horizon"]),
                          **_settings(plan, PlanConfig), a_max=spec.a_max)
    out_root = section["out_path"]
    n_tasks = section.get("n_tasks", 10)
    smoother = 0
    rows = []
    for t in range(n_tasks):
        window = evalreport.expert_window(
            data, enc, plan_cfg.horizon,
            seed=derive_seed(cfg["seed"], "landscape", t))
        pair = evalreport.landscape(
            f_base, f_adv, window, plan_cfg, **_settings(section, ["resolution"]),
            coeff_range=(section.get("c_min", -1.25), section.get("c_max", 1.25)),
            seed=derive_seed(cfg["seed"], "landscape-init", t))
        evalreport.emit_report(pair, os.path.join(out_root, f"task_{t}"))
        tv_base = evalreport.total_variation(pair.baseline.values)
        tv_adv = evalreport.total_variation(pair.adversarial.values)
        smoother += tv_adv <= tv_base
        rows.append({"task": t, "tv_baseline": tv_base, "tv_adversarial": tv_adv})
        print(f"task {t}: total variation baseline {tv_base:.6g} "
              f"adversarial {tv_adv:.6g}")
    summary = {"n_tasks": n_tasks, "adversarial_smoother": smoother,
               "fraction": smoother / n_tasks, "rows": rows,
               "config_hash": config_hash(cfg)}
    os.makedirs(out_root, exist_ok=True)
    write_json(os.path.join(out_root, "summary.json"), summary,
               separators=(",", ":"))
    _write_run_manifest(out_root, cfg, enc)
    print(f"adversarial grid smoother on {smoother}/{n_tasks} tasks")
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmplanlab",
        description="Latent world-model planning laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen-data": cmd_gen_data,
        "train": cmd_train,
        "finetune-online": cmd_finetune_online,
        "finetune-adv": cmd_finetune_adv,
        "train-initnet": cmd_train_initnet,
        "eval": cmd_eval,
        "gap": cmd_gap,
        "landscape": cmd_landscape,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help=f"named preset: {sorted(presets.PRESETS)}")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted path)")
        if name == "gen-data":
            p.add_argument("--force", action="store_true",
                           help="overwrite an existing dataset directory")
        if name == "eval":
            p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                           help="parallel task workers")
    return parser


def main(argv: list[str] | None = None) -> int:
    # fixed glibc mmap and trim thresholds: the dynamic ones, set by the largest
    # block freed, can trim and re-fault a big batch's temporaries every step
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt"):
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        return args.func(cfg, args)
    except (ConfigError, HorizonTooLong) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericFailure as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

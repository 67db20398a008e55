"""Command-line entry point for reproducible experiment pipelines.

Commands: gen-data, train, finetune-online, finetune-adv, train-initnet,
eval, gap, landscape. Every command is a pure function of (config file,
CLI overrides, seed): reports and checkpoints rerun byte-identically, and
`timing.json` is the only output that depends on the machine.
A key a section leaves out takes the default of the function or dataclass
it configures; the few keys whose callee has no default get theirs here.
Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

from . import envs, evalreport, finetune, initnet, presets, worldmodel
from .data import load_dataset, save_dataset
from .diffcore import NumericFailure
from .encoder import (Encoder, encode_dataset, encoder_hash, make_identity,
                      make_random_fourier)
from .planners import (OPTIMIZERS, CemConfig, GoalLossSpec, MpcConfig,
                       MppiConfig, PlanConfig, PlannerSpec, RefineConfig,
                       wgl_early_heavy, wgl_late_heavy)
from .rng import derive_seed

SEED_ENV_VAR = "WMPLANLAB_SEED"


class ConfigError(Exception):
    pass


# --------------------------------------------------------------------------
# config schema: every known key with a coarse type, or the frozenset of
# the strings it may take; unknown keys rejected

_ANY_KEY = "__any__"
_BY_KIND = "__by_kind__"  # the section's "kind" picks its schema
_OPTIMIZER = frozenset(OPTIMIZERS)

_CEM_KEYS = {"kind": str, "horizon": int, "iterations": int, "n_pop": int,
             "k_elite": int, "sigma0": float, "cov_mode": str, "jitter": float}

_PLANNER_KEYS = {
    "gbp": {"kind": str, "horizon": int, "iterations": int,
            "optimizer": _OPTIMIZER, "eta": float, "loss": str,
            "init": frozenset({"gaussian", "initnet"}), "clamp": bool,
            "return_best": bool, "initnet_path": str},
    "cem": _CEM_KEYS,
    "gradcem": {**_CEM_KEYS, "refine_steps": int, "refine_eta": float},
    "mppi": {"kind": str, "horizon": int, "iterations": int, "samples": int,
             "sigma": float, "temperature": float},
}

_SCHEMA = {
    "seed": int,
    "out_dir": str,
    "env": {"kind": str, "frameskip": int},
    "encoder": {"kind": str, "d_z": int, "sigma": float, "seed": int},
    "dataset": {"path": str, "n_traj": int, "traj_len": int, "policy": str},
    "model": {"path": str, "hidden": list, "residual": bool,
              "train": {"epochs": int, "batch_size": int, "lr": float}},
    "finetune": {
        "adversarial": {"out_path": str, "lambda_a": float, "lambda_z": float,
                        "eps_a": (float, None), "eps_z": (float, None),
                        "alpha_a": (float, None), "alpha_z": (float, None),
                        "attack": str, "pgd_steps": int,
                        "radius_mode": str, "per_dimension_std": bool,
                        "epochs": int, "batch_size": int, "lr": float,
                        "dump_perturbed": bool, "perturbed_path": str},
        "online": {"out_path": str, "corrected_path": (str, None),
                   "iterations": int, "plan_iterations": int, "horizon": int,
                   "mix_ratio": float, "lr": float, "finetune_steps": int,
                   "batch_size": int, "plan_optimizer": _OPTIMIZER,
                   "plan_eta": float},
    },
    "initnet": {"path": str, "horizon": int, "lr": float,
                "iterations": (int, None)},
    "planners": {_ANY_KEY: {_BY_KIND: _PLANNER_KEYS}},
    "eval": {"out_path": str, "n_tasks": int, "mode": str, "horizon_gap": int,
             "models": {_ANY_KEY: str}, "planners": list,
             "mpc": {"steps": int, "k_exec": (int, None),
                     "plan_iters": (int, None), "eta": (float, None),
                     "warm_start": bool},
             "require_cross_room": bool},
    "gap": {"out_path": str, "n": int, "horizon": int,
            "models": {_ANY_KEY: str},
            "plan": {"iterations": int, "optimizer": _OPTIMIZER, "eta": float}},
    "landscape": {"out_path": str, "baseline": str, "adversarial": str,
                  "n_tasks": int, "resolution": int, "c_min": float,
                  "c_max": float, "horizon": int,
                  "plan": {"iterations": int, "optimizer": _OPTIMIZER, "eta": float}},
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
    elif expect is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected number, got {value!r}")
    elif expect is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected integer, got {value!r}")
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
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError as err:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from err
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
        return make_random_fourier(spec.obs_dim,
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


def build_planner(name: str, section: dict, spec: envs.EnvSpec) -> PlannerSpec:
    kind = section.get("kind")
    if kind == "gbp":
        settings = _settings(section, PlanConfig, clamp_actions="clamp")
        loss = settings.pop("loss", None)  # a name; the plan holds its spec
        plan = PlanConfig(**settings, a_max=spec.a_max)
        if "loss" in section:
            plan.loss = _build_goal_loss(loss, plan.horizon)
        if plan.init == "initnet":
            path = section.get("initnet_path")
            if not path or not os.path.exists(path):
                raise ConfigError(f"planners.{name}.initnet_path missing")
            net, _ = initnet.load_initnet(path)
            plan.init_actions = initnet.as_planner_init(net)
        return PlannerSpec("gbp", plan.horizon, plan=plan)
    horizon = _settings(section, ["horizon"])
    if kind in ("cem", "gradcem"):
        refine = None
        if kind == "gradcem":
            refine = RefineConfig(**_settings(section, [], steps="refine_steps",
                                              eta="refine_eta"))
        return PlannerSpec(kind, **horizon,
                           cem=CemConfig(**_settings(section, CemConfig)),
                           refine=refine)
    if kind == "mppi":
        return PlannerSpec("mppi", **horizon,
                           mppi=MppiConfig(**_settings(section, MppiConfig)))
    raise ConfigError(f"planners.{name}.kind: unknown kind {kind!r}")


def _load_encoded_dataset(cfg: dict, spec: envs.EnvSpec, enc: Encoder):
    path = _need(cfg, "dataset", "path")
    if not os.path.isdir(path):
        raise ConfigError(f"dataset directory not found: {path}")
    data, manifest = load_dataset(path)
    return encode_dataset(enc, data), manifest


def _load_model(path: str):
    if not path or not os.path.isdir(path):
        raise ConfigError(f"model checkpoint not found: {path}")
    return worldmodel.load_model(path)


def _write_run_manifest(outdir: str, cfg: dict, enc: Encoder | None,
                        extra: dict | None = None) -> None:
    os.makedirs(outdir, exist_ok=True)
    manifest = {"config_hash": config_hash(cfg), "seed": cfg["seed"]}
    if enc is not None:
        manifest["encoder_hash"] = encoder_hash(enc)
    manifest.update(extra or {})
    with open(os.path.join(outdir, "run.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# commands


def cmd_gen_data(cfg: dict, args) -> int:
    spec = build_env(cfg)
    section = _need(cfg, "dataset")
    path = section["path"]
    if os.path.isdir(path) and os.listdir(path) and not args.force:
        raise ConfigError(f"dataset directory {path} is not empty "
                          "(use --force to overwrite)")
    seed = derive_seed(cfg["seed"], "dataset")
    data = envs.generate_dataset(spec, section.get("n_traj", 100),
                                 section.get("traj_len", 50),
                                 section.get("policy", "random"), seed)
    save_dataset(path, data, env=envs.spec_to_dict(spec), seed=seed, force=True)
    _write_run_manifest(path, cfg, None, {"n_traj": len(data.trajectories)})
    print(f"wrote {len(data.trajectories)} trajectories to {path}")
    return 0


def cmd_train(cfg: dict, args) -> int:
    spec = build_env(cfg)
    enc = build_encoder(cfg, spec)
    data, _ = _load_encoded_dataset(cfg, spec, enc)
    section = _need(cfg, "model")
    train = section.get("train", {})
    model = worldmodel.init_world_model(
        enc.d_z, spec.action_dim, **_settings(section, ["hidden", "residual"]),
        seed=derive_seed(cfg["seed"], "model-init"))
    result = worldmodel.train_teacher_forcing(
        model, data, **_settings(train, ["epochs", "batch_size", "lr"]),
        seed=derive_seed(cfg["seed"], "train"))
    meta = {"encoder_hash": encoder_hash(enc), "config_hash": config_hash(cfg),
            "train": train}
    worldmodel.save_model(section["path"], result.model, meta)
    _write_trace(section["path"], result)
    _write_run_manifest(section["path"], cfg, enc)
    print(f"trained model -> {section['path']} "
          f"(final epoch loss {result.epoch_losses[-1]:.6g})")
    return 0


def _write_trace(outdir: str, result) -> None:
    trace = {"batch_losses": result.batch_losses}
    if getattr(result, "epoch_losses", None):
        trace["epoch_losses"] = result.epoch_losses
    with open(os.path.join(outdir, "train_trace.json"), "w") as fh:
        json.dump(trace, fh, sort_keys=True)
        fh.write("\n")


def cmd_finetune_adv(cfg: dict, args) -> int:
    spec = build_env(cfg)
    enc = build_encoder(cfg, spec)
    data, _ = _load_encoded_dataset(cfg, spec, enc)
    model, _ = _load_model(_need(cfg, "model", "path"))
    section = _need(cfg, "finetune", "adversarial")
    pcfg = finetune.PerturbationConfig(
        **_settings(section, finetune.PerturbationConfig))
    result = finetune.adversarial_wm(
        model, data, pcfg,
        **_settings(section, ["epochs", "batch_size", "lr"],
                    keep_perturbed="dump_perturbed"),
        seed=derive_seed(cfg["seed"], "finetune-adv"))
    out = section["out_path"]
    meta = {"encoder_hash": encoder_hash(enc), "config_hash": config_hash(cfg),
            "finetune": "adversarial"}
    worldmodel.save_model(out, result.model, meta)
    _write_trace(out, result)
    _write_run_manifest(out, cfg, enc)
    if result.perturbed is not None:
        save_dataset(section.get("perturbed_path", os.path.join(out, "perturbed")),
                     result.perturbed, env=envs.spec_to_dict(spec),
                     seed=cfg["seed"], force=True)
    print(f"adversarial finetune -> {out} "
          f"(final loss {result.batch_losses[-1]:.6g})")
    return 0


def cmd_finetune_online(cfg: dict, args) -> int:
    spec = build_env(cfg)
    enc = build_encoder(cfg, spec)
    data, _ = _load_encoded_dataset(cfg, spec, enc)
    model, _ = _load_model(_need(cfg, "model", "path"))
    section = _need(cfg, "finetune", "online")
    ocfg = finetune.OnlineConfig(**_settings(section, finetune.OnlineConfig))
    result = finetune.online_wm(model, spec, enc, data, ocfg,
                                seed=derive_seed(cfg["seed"], "finetune-online"))
    out = section["out_path"]
    meta = {"encoder_hash": encoder_hash(enc), "config_hash": config_hash(cfg),
            "finetune": "online"}
    worldmodel.save_model(out, result.model, meta)
    _write_trace(out, result)
    _write_run_manifest(out, cfg, enc)
    corrected_path = section.get("corrected_path")
    if corrected_path and result.corrected.trajectories:
        save_dataset(corrected_path, result.corrected,
                     env=envs.spec_to_dict(spec), seed=cfg["seed"], force=True)
    n_corr = len(result.corrected.trajectories)
    print(f"online finetune -> {out} ({n_corr} corrected trajectories)")
    return 0


def cmd_train_initnet(cfg: dict, args) -> int:
    spec = build_env(cfg)
    enc = build_encoder(cfg, spec)
    data, _ = _load_encoded_dataset(cfg, spec, enc)
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
    spec = build_env(cfg)
    enc = build_encoder(cfg, spec)
    data, _ = _load_encoded_dataset(cfg, spec, enc)
    section = _need(cfg, "eval")
    model_paths = section.get("models", {})
    if args.models:
        keep = set(args.models.split(","))
        model_paths = {k: v for k, v in model_paths.items() if k in keep}
    models = {}
    for name, path in model_paths.items():
        models[name], _ = _load_model(path)
    if not models:
        raise ConfigError("eval.models selected no checkpoints")
    planner_names = section.get("planners", list(cfg.get("planners", {})))
    if args.planners:
        keep = set(args.planners.split(","))
        planner_names = [p for p in planner_names if p in keep]
    planner_cfgs = cfg.get("planners", {})
    planners = {}
    for name in planner_names:
        if name not in planner_cfgs:
            raise ConfigError(f"eval.planners references unknown planner {name!r}")
        planners[name] = build_planner(name, planner_cfgs[name], spec)
    if not planners:
        raise ConfigError("eval selected no planners")
    mode = args.mode or section.get("mode", "mpc")
    mpc_cfg = MpcConfig(**_settings(section.get("mpc", {}), MpcConfig))
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
    spec = build_env(cfg)
    enc = build_encoder(cfg, spec)
    data, _ = _load_encoded_dataset(cfg, spec, enc)
    section = _need(cfg, "gap")
    plan_cfg = PlanConfig(**_settings(section, ["horizon"]),
                          **_settings(section.get("plan", {}), PlanConfig),
                          a_max=spec.a_max)
    out_root = section["out_path"]
    for name, path in section.get("models", {}).items():
        model, _ = _load_model(path)
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
    spec = build_env(cfg)
    enc = build_encoder(cfg, spec)
    data, _ = _load_encoded_dataset(cfg, spec, enc)
    section = _need(cfg, "landscape")
    f_base, _ = _load_model(section.get("baseline"))
    f_adv, _ = _load_model(section.get("adversarial"))
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
    with open(os.path.join(out_root, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
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
            p.add_argument("--models", help="comma-separated model filter")
            p.add_argument("--planners", help="comma-separated planner filter")
            p.add_argument("--mode", choices=["open-loop", "mpc"],
                           help="override eval.mode")
            p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                           help="parallel task workers")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        return args.func(cfg, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except FileExistsError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericFailure as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

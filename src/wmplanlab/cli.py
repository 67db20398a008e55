"""Command-line entry point for reproducible experiment pipelines.

Commands: gen-data, train, finetune-online, finetune-adv, eval, gap,
landscape. Every command is a pure function of the config file (or
preset) and its `--set` overrides, the seed included; nothing is read
from the environment. Reports and checkpoints rerun byte-identically,
and `timing.json` is the only output that depends on the machine.
Besides `--config`, `--preset` and `--set`, the only flags are `eval
--workers` (how many processes run the tasks) and `gen-data --force` (may
overwrite a dataset directory); neither changes an output byte, so the
config hash that each output carries covers everything that decides it.
The config's schema is `Config`: each section is a dataclass (the planner,
finetune and MPC configs among them) whose fields declare each key's name,
type, default and rules, and every key and rule is checked when the config
loads, whatever the command; a key that no field declares is an error.
The model's skip connection, CEM's full covariance and GBP's clamp to the
env's action bound are fixed, not set.
Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import envs, evalreport, finetune, presets, worldmodel
from .config import (COUNT, FLAT, POSITIVE, WIDTHS, Checked, FieldError, at_least,
                     check, config_key, one_of)
from .data import Dataset, HorizonTooLong, load_dataset, sample_window, save_dataset
from .diffcore import NumericFailure
from .encoder import (IDENTITY, RANDOM_FOURIER, Encoder, encode_dataset,
                      encoder_hash, make_identity, make_random_fourier)
from .planners import (CemConfig, Descent, MpcConfig, MppiConfig, PlanConfig,
                       Planner, RefineConfig)
from .rng import derive_seed, generator
from .tensorio import read_json, write_json


class ConfigError(Exception):
    pass


# --------------------------------------------------------------------------
# config schema: one dataclass per section; a key left out keeps its default,
# and a path that is None is unset (a command that needs it exits 2 naming it)

_ENVS = {envs.WALL2D: envs.wall2d_spec, envs.POINTMASS: envs.pointmass_spec}
_PLANNERS = {"gbp": PlanConfig, "cem": CemConfig, "mppi": MppiConfig,
             "gradcem": lambda: CemConfig(refine=RefineConfig())}  # kind -> its defaults


@dataclass
class EnvSection(Checked):
    kind: str = field(default=envs.WALL2D, metadata=one_of(_ENVS))
    frameskip: int = field(default=5, metadata=COUNT)


@dataclass
class EncoderSection(Checked):
    kind: str = field(default=RANDOM_FOURIER, metadata=one_of((IDENTITY, RANDOM_FOURIER)))
    d_z: int = field(default=64, metadata=COUNT)  # the random-fourier kind's
    sigma: float = 4.0
    seed: int = 0


@dataclass
class DatasetSection(Checked):
    path: str = None
    n_traj: int = field(default=100, metadata=COUNT)
    traj_len: int = field(default=50, metadata=at_least(2))  # a start and one step
    policy: str = field(default="random", metadata=one_of(envs.POLICIES))


@dataclass
class TrainSection(Checked):
    epochs: int = field(default=50, metadata=COUNT)
    batch_size: int = field(default=64, metadata=COUNT)
    lr: float = field(default=1e-3, metadata=POSITIVE)


@dataclass
class ModelSection(Checked):
    path: str = None
    hidden: list[int] = field(default_factory=lambda: [128, 128], metadata=WIDTHS)
    train: TrainSection = field(default_factory=TrainSection)


@dataclass
class AdversarialSection:
    out_path: str = None
    perturbation: finetune.PerturbationConfig = field(
        default_factory=finetune.PerturbationConfig, metadata=FLAT)
    train: TrainSection = field(default_factory=lambda: TrainSection(1, 48, 1e-4),
                                metadata=FLAT)
    dump_perturbed: bool = False
    perturbed_path: str = None  # None writes <out_path>/perturbed


@dataclass
class OnlineSection:
    out_path: str = None
    corrected_path: str | None = None  # None writes no corrected dataset
    settings: finetune.OnlineConfig = field(default_factory=finetune.OnlineConfig,
                                            metadata=FLAT)


@dataclass
class FinetuneSection:
    adversarial: AdversarialSection = field(default_factory=AdversarialSection)
    online: OnlineSection = field(default_factory=OnlineSection)


@dataclass
class EvalSection(Checked):
    out_path: str = None
    n_tasks: int = field(default=100, metadata=COUNT)
    mode: str = field(default="mpc", metadata=one_of(evalreport.MODES))
    horizon_gap: int = field(default=25, metadata=COUNT)
    models: dict[str, str] = field(default_factory=dict)  # name -> checkpoint
    planners: list[str] = None  # None selects every planner
    mpc: MpcConfig = field(default_factory=MpcConfig)
    require_cross_room: bool = False


@dataclass
class GapSection(Checked):
    out_path: str = None
    n: int = field(default=50, metadata=COUNT)
    horizon: int = field(default=25, metadata=COUNT)
    models: dict[str, str] = field(default_factory=dict)
    plan: Descent = field(default_factory=Descent)


@dataclass
class LandscapeSection:
    out_path: str = None
    baseline: str = None
    adversarial: str = None
    n_tasks: int = field(default=10, metadata=COUNT)
    resolution: int = field(default=50, metadata=COUNT)
    c_min: float = -1.25
    c_max: float = 1.25
    horizon: int = field(default=25, metadata=COUNT)
    # the landscape plans with Adam at 1e-3, not GBP's SGD at 1.0
    plan: Descent = field(default_factory=lambda: Descent(optimizer="adam", eta=1e-3))

    def __post_init__(self):
        check(self)
        if not self.c_min < self.c_max:
            raise ValueError(f"c_min {self.c_min!r} is not below c_max {self.c_max!r}")


@dataclass
class Config:
    seed: int = None  # load_config requires it
    out_dir: str = None
    env: EnvSection = field(default_factory=EnvSection)
    encoder: EncoderSection = field(default_factory=EncoderSection)
    dataset: DatasetSection = field(default_factory=DatasetSection)
    model: ModelSection = field(default_factory=ModelSection)
    finetune: FinetuneSection = field(default_factory=FinetuneSection)
    planners: dict[str, Planner] = field(default_factory=dict)
    eval: EvalSection = field(default_factory=EvalSection)
    gap: GapSection = field(default_factory=GapSection)
    landscape: LandscapeSection = field(default_factory=LandscapeSection)


_NAMES = {int: "integer", float: "number"}  # in messages; other types go by name


def _is_a(tp, value) -> bool:
    """Whether `value`, read from JSON, has the type `tp`: a float takes an
    integer too but not JSON's NaN or Infinity, and only `T | None` takes
    null."""
    if isinstance(tp, UnionType):
        return any(_is_a(t, value) for t in get_args(tp))
    if get_origin(tp) is list:
        return isinstance(value, list) and all(_is_a(get_args(tp)[0], v) for v in value)
    if tp is float:
        return type(value) is int or (type(value) is float and math.isfinite(value))
    return type(value) is tp


def _value(tp, f, default, value, here: str):
    """The setting `value` at `here` of a field `f` of type `tp`."""
    if _is_a(tp, value):
        return value
    if isinstance(tp, type) and is_dataclass(tp):
        return parse(default, value, here)
    if tp == Planner:
        return _planner(value, here)
    if get_origin(tp) is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{here}: expected an object")
        return {name: _value(get_args(tp)[1], None, None, v, f"{here}.{name}")
                for name, v in value.items()}
    tp = get_args(tp)[0] if isinstance(tp, UnionType) else tp
    expect = (f and f.metadata.get("expect") or _NAMES.get(tp)
              or (get_origin(tp) or tp).__name__)
    if tp is float and type(value) is float:  # NaN or Infinity
        expect = "a finite number"
    raise ConfigError(f"{here}: expected {expect}, got {value!r}")


@cache
def _fields(cls) -> tuple[dict, list[str]]:
    """The fields of the config class `cls` with their types, by config
    key, and the names of its FLAT parts."""
    hints = get_type_hints(cls)
    keyed = {config_key(f): (f, hints[f.name]) for f in fields(cls)
             if not f.metadata.get("flat")}
    keyed.pop(None, None)  # the fields no key sets
    return keyed, [f.name for f in fields(cls) if f.metadata.get("flat")]


def parse(base, section, path: str):
    """The config object `base` with the settings of `section`, the config
    object at `path`. Each key names a field of `base`, or of a FLAT part
    whose keys sit in the same section, and holds the type the field
    declares; a key left out keeps `base`'s value. A rule the result breaks
    is a ConfigError naming the key, or for a rule between fields, the
    section."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    keyed, flat = _fields(type(base))
    changes, claimed = {}, set()
    for name in flat:
        part = getattr(base, name)
        if part is not None:  # a part that is None takes no keys
            own = _fields(type(part))[0].keys()
            changes[name] = parse(part, {k: section[k] for k in section if k in own},
                                  path)
            claimed |= own
    for key, value in section.items():
        if key in claimed:
            continue
        here = f"{path}.{key}" if path else key
        if key not in keyed:
            raise ConfigError(f"unknown config key: {here}")
        f, tp = keyed[key]
        changes[f.name] = _value(tp, f, getattr(base, f.name), value, here)
    try:
        return replace(base, **changes)
    except FieldError as err:
        raise ConfigError(f"{path}.{err}") from err
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _planner(section, path: str) -> Planner:
    """The planner config of the section at `path`: its kind's defaults
    with the section's settings."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in _PLANNERS:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
    return parse(_PLANNERS[kind](), {k: v for k, v in section.items() if k != "kind"},
                 path)


def validate_config(cfg: dict) -> Config:
    """`cfg` as a Config; an unknown key, a value of another type or a
    broken rule is a ConfigError naming the key's path."""
    return parse(Config(), cfg, "")


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
    """The config that `args` names, with its `--set` overrides, once it
    checks out."""
    return _load(args)[0]


def _load(args) -> tuple[dict, Config]:
    """The config that `args` names, as read and as a Config."""
    if args.preset:
        try:
            cfg = presets.get_preset(args.preset)
        except KeyError as err:
            raise ConfigError(str(err)) from err
    elif args.config:
        try:
            cfg = read_json(args.config)
        except ValueError as err:
            raise ConfigError(f"config file {args.config}: {err}") from err
    else:
        raise ConfigError("provide --config FILE or --preset NAME")
    for spec in args.set or []:
        _set_override(cfg, spec)
    conf = validate_config(cfg)
    if conf.seed is None:
        raise ConfigError("config must set an explicit seed")
    return cfg, conf


# --------------------------------------------------------------------------
# builders


def build_env(cfg: dict) -> envs.EnvSpec:
    env = parse(EnvSection(), cfg.get("env", {}), "env")
    return _ENVS[env.kind](env.frameskip)


def build_encoder(cfg: dict, spec: envs.EnvSpec) -> Encoder:
    section = parse(EncoderSection(), cfg.get("encoder", {}), "encoder")
    if section.kind == IDENTITY:
        return make_identity(spec.obs_dim)
    try:
        return make_random_fourier(spec.obs_dim, section.d_z, section.sigma,
                                   section.seed)
    except ValueError as err:
        raise ConfigError(f"encoder: {err}") from err


def build_planner(name: str, section: dict, spec: envs.EnvSpec) -> Planner:
    """The planner config of section `planners.<name>`; settings the config
    rejects are a config error. A `gbp` planner takes the env's action
    bound, and clamps to it."""
    plan = _planner(section, f"planners.{name}")
    if not isinstance(plan, PlanConfig):
        return plan
    return replace(plan, a_max=spec.a_max)


def _inputs(cfg: dict, conf: Config) -> tuple[envs.EnvSpec, Encoder, Dataset]:
    """The env, the encoder and the encoded dataset at `dataset.path`, which
    must hold the observations `gen-data` wrote under this env."""
    spec = build_env(cfg)
    enc = build_encoder(cfg, spec)
    path = conf.dataset.path
    if not path or not os.path.isdir(path):
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


# the files each kind of output directory gets
_DATASET_FILES = ("data.bin", "manifest.json")
_CHECKPOINT_FILES = ("model.json", "weights.bin", "train_trace.json", "run.json")


def _out(path: str | None, key: str, files=()) -> str:
    """The output directory that config key `key` sets, or one a command
    writes inside it, where it writes `files`; unset, a path that exists
    but is no directory, or one of `files` that is a directory, is a config
    error naming `key`."""
    if not path:
        raise ConfigError(f"{key}: not set; the command writes there")
    if os.path.exists(path) and not os.path.isdir(path):
        raise ConfigError(f"{key}: {path} exists and is not a directory")
    for name in files:
        if os.path.isdir(os.path.join(path, name)):
            raise ConfigError(f"{key}: {os.path.join(path, name)} is a directory; "
                              "the command writes a file there")
    return path


def _load_model(path: str, enc: Encoder):
    """A world model checkpoint; a missing or damaged one, or one that
    records training under another encoder than `enc`, is a config error."""
    if not path or not os.path.isdir(path):
        raise ConfigError(f"model checkpoint not found: {path}")
    try:
        model, meta = worldmodel.load_model(path)
    except ValueError as err:
        raise ConfigError(f"checkpoint {path}: {err}") from err
    trained_under = meta.get("encoder_hash")
    if trained_under is not None and trained_under != encoder_hash(enc):
        raise ConfigError(f"checkpoint {path}: trained under another encoder "
                          f"(encoder_hash {trained_under[:12]}, "
                          f"configured {encoder_hash(enc)[:12]})")
    return model


def _save_trained(out: str, cfg: dict, enc: Encoder, result, **meta) -> None:
    """The checkpoint of a trainer's `TrainResult` with its `meta`, its
    `train_trace.json` (the batch losses, and the epoch losses where the
    result keeps some) and its run manifest."""
    meta = {"encoder_hash": encoder_hash(enc), "config_hash": config_hash(cfg),
            **meta}
    worldmodel.save_model(out, result.model, meta)
    trace = {"batch_losses": result.batch_losses}
    if result.epoch_losses:
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


def cmd_gen_data(cfg: dict, conf: Config, args) -> int:
    spec = build_env(cfg)
    section = conf.dataset
    path = _out(section.path, "dataset.path", _DATASET_FILES + ("run.json",))
    if os.path.isdir(path) and os.listdir(path) and not args.force:
        raise ConfigError(f"dataset directory {path} is not empty "
                          "(use --force to overwrite)")
    seed = derive_seed(conf.seed, "dataset")
    data = envs.generate_dataset(spec, section.n_traj, section.traj_len,
                                 section.policy, seed)
    save_dataset(path, data, env=envs.spec_to_dict(spec), seed=seed)
    _write_run_manifest(path, cfg, None, {"n_traj": len(data)})
    print(f"wrote {len(data)} trajectories to {path}")
    return 0


def cmd_train(cfg: dict, conf: Config, args) -> int:
    section = conf.model
    out = _out(section.path, "model.path", _CHECKPOINT_FILES)
    spec, enc, data = _inputs(cfg, conf)
    model = worldmodel.init_world_model(
        enc.d_z, spec.action_dim, section.hidden,
        seed=derive_seed(conf.seed, "model-init"))
    train = section.train
    result = worldmodel.train_teacher_forcing(
        model, data, train.epochs, train.batch_size, train.lr,
        seed=derive_seed(conf.seed, "train"))
    _save_trained(out, cfg, enc, result, train=asdict(train))
    print(f"trained model -> {out} "
          f"(final epoch loss {result.epoch_losses[-1]:.6g})")
    return 0


def cmd_finetune_adv(cfg: dict, conf: Config, args) -> int:
    section = conf.finetune.adversarial
    out = _out(section.out_path, "finetune.adversarial.out_path", _CHECKPOINT_FILES)
    perturbed = section.perturbed_path or os.path.join(out, "perturbed")
    if section.dump_perturbed:
        _out(perturbed, "finetune.adversarial.perturbed_path", _DATASET_FILES)
    spec, enc, data = _inputs(cfg, conf)
    model = _load_model(conf.model.path, enc)
    train = section.train
    result = finetune.adversarial_wm(
        model, data, section.perturbation, epochs=train.epochs,
        batch_size=train.batch_size, lr=train.lr, keep_perturbed=section.dump_perturbed,
        seed=derive_seed(conf.seed, "finetune-adv"))
    _save_trained(out, cfg, enc, result, finetune="adversarial")
    if result.synthesized is not None:
        save_dataset(perturbed, result.synthesized, env=envs.spec_to_dict(spec),
                     seed=conf.seed)
    print(f"adversarial finetune -> {out} "
          f"(final loss {result.batch_losses[-1]:.6g})")
    return 0


def cmd_finetune_online(cfg: dict, conf: Config, args) -> int:
    section = conf.finetune.online
    out = _out(section.out_path, "finetune.online.out_path", _CHECKPOINT_FILES)
    if section.corrected_path:
        _out(section.corrected_path, "finetune.online.corrected_path", _DATASET_FILES)
    spec, enc, data = _inputs(cfg, conf)
    model = _load_model(conf.model.path, enc)
    result = finetune.online_wm(model, spec, enc, data, section.settings,
                                seed=derive_seed(conf.seed, "finetune-online"))
    _save_trained(out, cfg, enc, result, finetune="online")
    if section.corrected_path and len(result.synthesized):
        save_dataset(section.corrected_path, result.synthesized,
                     env=envs.spec_to_dict(spec), seed=conf.seed)
    print(f"online finetune -> {out} ({len(result.synthesized)} corrected trajectories)")
    return 0


def cmd_eval(cfg: dict, conf: Config, args) -> int:
    section = conf.eval
    if args.workers < 1:
        raise ConfigError(f"--workers: expected an integer >= 1, got {args.workers}")
    out = _out(section.out_path, "eval.out_path",
               ("report.json", "timing.json", "report.csv", "run.json"))
    spec, enc, data = _inputs(cfg, conf)
    models = {name: _load_model(path, enc) for name, path in section.models.items()}
    if not models:
        raise ConfigError("eval.models names no checkpoints")
    planner_cfgs = cfg.get("planners", {})
    planners = {}
    for name in planner_cfgs if section.planners is None else section.planners:
        if name not in planner_cfgs:
            raise ConfigError(f"eval.planners references unknown planner {name!r}")
        planners[name] = build_planner(name, planner_cfgs[name], spec)
    if not planners:
        raise ConfigError("eval selected no planners")
    mpc_cfg = section.mpc
    short = [name for name, p in planners.items() if p.horizon < (mpc_cfg.k_exec or 0)]
    if section.mode == "mpc" and short:
        raise ConfigError(f"eval.mpc.k_exec {mpc_cfg.k_exec} is longer than the "
                          f"horizon of planner(s) {', '.join(short)}")
    try:
        report = evalreport.evaluate(
            spec, enc, models, planners, n_tasks=section.n_tasks, mode=section.mode,
            seed=conf.seed, data=data, horizon_gap=section.horizon_gap,
            mpc_cfg=mpc_cfg, workers=args.workers,
            require_cross_room=section.require_cross_room, config_hash=config_hash(cfg))
    except evalreport.NoCrossRoomTask as err:
        raise ConfigError(f"eval.require_cross_room: {err} at eval.horizon_gap "
                          f"{section.horizon_gap}") from err
    evalreport.emit_report(report, out)
    _write_run_manifest(out, cfg, enc)
    for cell, timing in zip(report.cells, report.timing):
        print(f"{cell.model:>14s} x {cell.planner:<10s} [{cell.mode}] "
              f"success {cell.success_rate:6.1%} "
              f"({cell.wilson_lo:.2f}-{cell.wilson_hi:.2f}) "
              f"plan {timing['mean_plan_seconds']:.3f}s")
    return 0


def cmd_gap(cfg: dict, conf: Config, args) -> int:
    section = conf.gap
    out = _out(section.out_path, "gap.out_path")
    outdirs = {name: _out(os.path.join(out, name), "gap.out_path",
                          ("gap.json", "gap.csv", "run.json"))
               for name in section.models}
    spec, enc, data = _inputs(cfg, conf)
    models = {name: _load_model(path, enc) for name, path in section.models.items()}
    if not models:
        raise ConfigError("gap.models names no checkpoints")
    plan_cfg = PlanConfig(horizon=section.horizon, **asdict(section.plan),
                          a_max=spec.a_max)
    for name, model in models.items():
        report = evalreport.train_test_gap(
            model, spec, enc, data, plan_cfg, section.n,
            seed=derive_seed(conf.seed, "gap"))
        evalreport.emit_report(report, outdirs[name])
        _write_run_manifest(outdirs[name], cfg, enc)
        print(f"{name:>14s} gap: expert {report.mean_expert:.6g} "
              f"planned {report.mean_planned:.6g} "
              f"difference {report.difference:.6g}")
    return 0


def cmd_landscape(cfg: dict, conf: Config, args) -> int:
    section = conf.landscape
    out_root = _out(section.out_path, "landscape.out_path", ("summary.json", "run.json"))
    task_dirs = [_out(os.path.join(out_root, f"task_{t}"), "landscape.out_path",
                      ("landscape.json", "landscape_baseline.csv",
                       "landscape_adversarial.csv"))
                 for t in range(section.n_tasks)]
    spec, enc, data = _inputs(cfg, conf)
    f_base = _load_model(section.baseline, enc)
    f_adv = _load_model(section.adversarial, enc)
    plan_cfg = PlanConfig(horizon=section.horizon, **asdict(section.plan),
                          a_max=spec.a_max)
    n_tasks = section.n_tasks
    smoother = 0
    rows = []
    for t, task_dir in enumerate(task_dirs):
        rng = generator(derive_seed(conf.seed, "landscape", t), "window")
        window = sample_window(data, plan_cfg.horizon, rng)
        pair = evalreport.landscape(
            f_base, f_adv, window, plan_cfg, section.resolution,
            coeff_range=(section.c_min, section.c_max),
            seed=derive_seed(conf.seed, "landscape-init", t))
        evalreport.emit_report(pair, task_dir)
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
        return args.func(*_load(args), args)
    except (ConfigError, HorizonTooLong) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericFailure as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

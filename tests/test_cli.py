import json
import os

import numpy as np
import pytest

from wmplanlab import cli, envs, evalreport, finetune, initnet, worldmodel
from wmplanlab.cli import ConfigError, config_hash, load_config, validate_config
from wmplanlab.data import load_dataset
from wmplanlab.planners import (CemConfig, MpcConfig, MppiConfig, PlanConfig,
                                PlannerSpec, RefineConfig, wgl_late_heavy)
from wmplanlab.presets import PRESETS, get_preset


def tiny_config(root) -> dict:
    root = str(root)
    return {
        "seed": 11,
        "out_dir": root,
        "env": {"kind": "wall2d", "frameskip": 5},
        "encoder": {"kind": "random-fourier", "d_z": 8, "sigma": 4.0, "seed": 0},
        "dataset": {"path": f"{root}/data", "n_traj": 6, "traj_len": 10,
                    "policy": "goal-seeking-noisy"},
        "model": {"path": f"{root}/model", "hidden": [8], "residual": True,
                  "train": {"epochs": 2, "batch_size": 16, "lr": 1e-3}},
        "finetune": {
            "adversarial": {"out_path": f"{root}/model-adv", "lambda_a": 0.3,
                            "lambda_z": 0.1, "attack": "fgsm", "epochs": 1,
                            "batch_size": 3, "lr": 1e-3},
            "online": {"out_path": f"{root}/model-owm",
                       "corrected_path": f"{root}/data-corr", "iterations": 2,
                       "plan_iterations": 3, "horizon": 4, "mix_ratio": 0.5,
                       "lr": 1e-3, "finetune_steps": 2, "batch_size": 8},
        },
        "initnet": {"path": f"{root}/initnet", "horizon": 3, "lr": 0.05,
                    "iterations": 10},
        "planners": {
            "gbp_gd": {"kind": "gbp", "horizon": 4, "iterations": 5,
                       "optimizer": "sgd", "eta": 0.5, "loss": "final",
                       "clamp": True},
            "cem_small": {"kind": "cem", "horizon": 4, "n_pop": 10,
                          "k_elite": 3, "iterations": 2},
        },
        "eval": {"out_path": f"{root}/eval", "n_tasks": 2, "mode": "open-loop",
                 "horizon_gap": 4, "models": {"baseline": f"{root}/model"},
                 "planners": ["gbp_gd"],
                 "mpc": {"steps": 2, "plan_iters": 3, "eta": 0.5}},
        "gap": {"out_path": f"{root}/gap", "n": 2, "horizon": 4,
                "models": {"baseline": f"{root}/model"},
                "plan": {"iterations": 3, "optimizer": "sgd", "eta": 0.5}},
        "landscape": {"out_path": f"{root}/landscape",
                      "baseline": f"{root}/model",
                      "adversarial": f"{root}/model-adv", "n_tasks": 1,
                      "resolution": 5, "horizon": 4,
                      "plan": {"iterations": 3, "optimizer": "adam",
                               "eta": 0.05}},
    }


def _write(tmp_path, cfg) -> str:
    path = os.path.join(tmp_path, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def _run(*argv) -> int:
    return cli.main(list(argv))


@pytest.fixture()
def pipeline(tmp_path):
    cfg = tiny_config(tmp_path)
    path = _write(tmp_path, cfg)
    assert _run("gen-data", "--config", path) == 0
    assert _run("train", "--config", path) == 0
    return cfg, path


def test_gen_data_minimal(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg["dataset"]["n_traj"] = 1
    cfg["dataset"]["traj_len"] = 2
    path = _write(tmp_path, cfg)
    assert _run("gen-data", "--config", path) == 0
    data, manifest = load_dataset(cfg["dataset"]["path"])
    assert manifest["count"] == 1
    assert len(data.trajectories[0]) == 1


def test_gen_data_refuses_overwrite_without_force(tmp_path):
    cfg = tiny_config(tmp_path)
    path = _write(tmp_path, cfg)
    assert _run("gen-data", "--config", path) == 0
    assert _run("gen-data", "--config", path) == 2
    assert _run("gen-data", "--config", path, "--force") == 0


def test_gen_data_seed_repeat_identical(tmp_path):
    cfg = tiny_config(tmp_path)
    path = _write(tmp_path, cfg)
    _run("gen-data", "--config", path)
    first = (tmp_path / "data" / "traj_0.bin").read_bytes()
    _run("gen-data", "--config", path, "--force")
    assert (tmp_path / "data" / "traj_0.bin").read_bytes() == first


def test_train_writes_checkpoint_and_manifest(pipeline):
    cfg, path = pipeline
    model, meta = worldmodel.load_model(cfg["model"]["path"])
    assert model.d_z == 8
    assert "encoder_hash" in meta and "config_hash" in meta
    run = json.load(open(os.path.join(cfg["model"]["path"], "run.json")))
    assert run["config_hash"] == meta["config_hash"]
    trace = json.load(open(os.path.join(cfg["model"]["path"], "train_trace.json")))
    assert len(trace["epoch_losses"]) == 2


def test_finetune_adv_zero_lambda_continues_teacher_forcing(pipeline):
    cfg, path = pipeline
    assert _run("finetune-adv", "--config", path, "--set",
                "finetune.adversarial.lambda_a=0.0", "--set",
                "finetune.adversarial.lambda_z=0.0") == 0
    tuned, _ = worldmodel.load_model(cfg["finetune"]["adversarial"]["out_path"])
    # reference: continue training the saved model on the same schedule
    from wmplanlab.encoder import encode_dataset
    from wmplanlab.rng import derive_seed

    spec = cli.build_env(cfg)
    enc = cli.build_encoder(cfg, spec)
    data, _ = load_dataset(cfg["dataset"]["path"])
    encoded = encode_dataset(enc, data)
    base, _ = worldmodel.load_model(cfg["model"]["path"])
    ref = worldmodel.train_teacher_forcing(
        base, encoded, epochs=1, batch_size=3, lr=1e-3,
        seed=derive_seed(cfg["seed"], "finetune-adv"), batch_unit="trajectory")
    for w1, w2 in zip(tuned.weights, ref.model.weights):
        assert np.array_equal(w1, w2)


def test_finetune_online_zero_iterations_keeps_model(pipeline):
    cfg, path = pipeline
    assert _run("finetune-online", "--config", path, "--set",
                "finetune.online.iterations=0") == 0
    tuned, _ = worldmodel.load_model(cfg["finetune"]["online"]["out_path"])
    base, _ = worldmodel.load_model(cfg["model"]["path"])
    for w1, w2 in zip(tuned.weights, base.weights):
        assert np.array_equal(w1, w2)


def test_finetune_online_writes_corrected_dataset(pipeline):
    cfg, path = pipeline
    assert _run("finetune-online", "--config", path) == 0
    corr, manifest = load_dataset(cfg["finetune"]["online"]["corrected_path"])
    assert manifest["provenance"] == "corrected"
    assert len(corr.trajectories) == 2


def test_train_initnet_command(pipeline):
    cfg, path = pipeline
    assert _run("train-initnet", "--config", path) == 0
    from wmplanlab.initnet import load_initnet

    net, meta = load_initnet(cfg["initnet"]["path"])
    assert net.horizon == 3
    assert "config_hash" in meta


def test_eval_single_cell_and_deterministic_rerun(pipeline, tmp_path):
    cfg, path = pipeline
    assert _run("eval", "--config", path, "--workers", "1") == 0
    out = cfg["eval"]["out_path"]
    first = open(os.path.join(out, "report.json"), "rb").read()
    first_csv = open(os.path.join(out, "report.csv"), "rb").read()
    body = json.loads(first)
    assert len(body["cells"]) == 1
    assert body["cells"][0]["n_tasks"] == 2
    # byte-identical rerun
    assert _run("eval", "--config", path, "--workers", "1") == 0
    assert open(os.path.join(out, "report.json"), "rb").read() == first
    assert open(os.path.join(out, "report.csv"), "rb").read() == first_csv


def test_eval_mode_and_filters(pipeline):
    cfg, path = pipeline
    assert _run("eval", "--config", path, "--mode", "mpc", "--planners",
                "gbp_gd", "--workers", "1") == 0
    body = json.load(open(os.path.join(cfg["eval"]["out_path"], "report.json")))
    assert body["mode"] == "mpc"
    assert _run("eval", "--config", path, "--models", "nope") == 2


def test_gap_command(pipeline):
    cfg, path = pipeline
    assert _run("gap", "--config", path) == 0
    body = json.load(open(os.path.join(cfg["gap"]["out_path"], "baseline",
                                       "gap.json")))
    assert body["n"] == 2


def test_landscape_command(pipeline):
    cfg, path = pipeline
    assert _run("finetune-adv", "--config", path) == 0
    assert _run("landscape", "--config", path) == 0
    out = cfg["landscape"]["out_path"]
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["n_tasks"] == 1
    grid = json.load(open(os.path.join(out, "task_0", "landscape.json")))
    assert len(grid["baseline"]["values"]) == 5


def test_unknown_config_key_rejected(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg["evaluate"] = {}
    path = _write(tmp_path, cfg)
    assert _run("gen-data", "--config", path) == 2
    cfg2 = tiny_config(tmp_path)
    cfg2["model"]["hiden"] = [8]
    path2 = _write(tmp_path, cfg2)
    assert _run("gen-data", "--config", path2) == 2


def test_validate_config_names_field_path():
    with pytest.raises(ConfigError, match="model.hiden"):
        validate_config({"model": {"hiden": [8]}})
    with pytest.raises(ConfigError, match="expected integer"):
        validate_config({"seed": "zero"})


def test_null_is_accepted_only_where_the_callee_takes_none():
    validate_config({
        "initnet": {"iterations": None},
        "eval": {"mpc": {"k_exec": None, "plan_iters": None, "eta": None}},
        "finetune": {"adversarial": {"eps_a": None, "eps_z": None,
                                     "alpha_a": None, "alpha_z": None},
                     "online": {"corrected_path": None}}})
    for path in ("seed", "model.train.epochs", "model.path", "eval.mpc.steps",
                 "finetune.adversarial.lambda_a", "landscape.plan.eta",
                 "eval.models.baseline", "planners.p.horizon"):
        cfg = {}
        node = cfg
        *parents, last = path.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[last] = None
        if path.startswith("planners."):
            node["kind"] = "gbp"
        with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
            validate_config(cfg)


def test_train_with_a_null_key_is_a_config_error(pipeline):
    cfg, path = pipeline
    assert _run("train", "--config", path, "--set", "model.train.epochs=null") == 2
    assert _run("train", "--config", path, "--set", "initnet.iterations=null") == 0


def test_planner_keys_depend_on_the_kind():
    validate_config({"planners": {"p": {"kind": "gradcem", "refine_eta": 0.1}}})
    for section, key in [({"kind": "gbp", "samples": 8}, "samples"),
                         ({"kind": "gbp", "refine_eta": 0.1}, "refine_eta"),
                         ({"kind": "cem", "refine_steps": 2}, "refine_steps"),
                         ({"kind": "cem", "eta": 0.1}, "eta"),
                         ({"kind": "mppi", "n_pop": 10}, "n_pop"),
                         ({"kind": "gradcem", "temperature": 1.0}, "temperature")]:
        with pytest.raises(ConfigError, match=f"planners.p.{key}"):
            validate_config({"planners": {"p": section}})
    for section in ({"kind": "ilqr"}, {"horizon": 5}):
        with pytest.raises(ConfigError, match="planners.p.kind: unknown kind"):
            validate_config({"planners": {"p": section}})


def test_misplaced_planner_key_exits_with_code_2(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg["planners"]["gbp_gd"]["samples"] = 16
    assert _run("gen-data", "--config", _write(tmp_path, cfg)) == 2
    cfg["planners"]["gbp_gd"]["kind"] = "ilqr"
    del cfg["planners"]["gbp_gd"]["samples"]
    assert _run("gen-data", "--config", _write(tmp_path, cfg)) == 2


def test_unknown_optimizer_is_a_config_error_naming_its_key():
    for path in ("planners.p.optimizer", "gap.plan.optimizer",
                 "landscape.plan.optimizer", "finetune.online.plan_optimizer"):
        cfg = {}
        node = cfg
        *parents, last = path.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[last] = "adamw"
        if path.startswith("planners."):
            node["kind"] = "gbp"
        with pytest.raises(ConfigError, match=path.replace(".", r"\.")
                           + r": expected one of \['adam', 'sgd'\]"):
            validate_config(cfg)
        node[last] = "adam"
        validate_config(cfg)
    with pytest.raises(ConfigError, match=r"planners\.p\.init"):
        validate_config({"planners": {"p": {"kind": "gbp", "init": "zeros"}}})


def test_eval_with_an_unknown_optimizer_exits_with_code_2(pipeline):
    _, path = pipeline
    assert _run("eval", "--config", path, "--workers", "1", "--set",
                "planners.gbp_gd.optimizer=adamw") == 2


def test_finetune_online_with_an_unknown_optimizer_exits_with_code_2(pipeline):
    _, path = pipeline
    assert _run("finetune-online", "--config", path, "--set",
                "finetune.online.plan_optimizer=adamw") == 2


def test_missing_dataset_is_config_error(tmp_path):
    cfg = tiny_config(tmp_path)
    path = _write(tmp_path, cfg)
    assert _run("train", "--config", path) == 2  # dataset never generated


def test_seed_env_var_override(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    path = _write(tmp_path, cfg)

    class Args:
        preset = None
        config = path
        set = None

    monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
    loaded = load_config(Args())
    assert loaded["seed"] == 123
    monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
    with pytest.raises(ConfigError):
        load_config(Args())


def test_set_override_parses_json_scalars(tmp_path):
    cfg = tiny_config(tmp_path)
    path = _write(tmp_path, cfg)

    class Args:
        preset = None
        config = path
        set = ["dataset.n_traj=3", "eval.mode=mpc"]

    loaded = load_config(Args())
    assert loaded["dataset"]["n_traj"] == 3
    assert loaded["eval"]["mode"] == "mpc"


def test_numeric_failure_exit_code(pipeline):
    cfg, path = pipeline
    with np.errstate(over="ignore", invalid="ignore"):
        code = _run("finetune-adv", "--config", path, "--set",
                    "finetune.adversarial.eps_a=1e200", "--set",
                    "finetune.adversarial.eps_z=1e200")
    assert code == 3


def test_presets_exist_and_validate():
    assert set(PRESETS) == {"wall-baseline", "wall-awm", "wall-owm",
                            "pointmass-baseline", "longhorizon"}
    for name in PRESETS:
        cfg = get_preset(name)
        validate_config(cfg)
    wall = get_preset("wall-baseline")
    assert wall["dataset"]["n_traj"] == 1920  # reference dataset size
    assert wall["landscape"]["resolution"] == 50
    assert wall["landscape"]["c_min"] == -1.25
    assert wall["landscape"]["c_max"] == 1.25
    assert wall["planners"]["gbp_gd"]["eta"] == 1.0
    assert wall["planners"]["gbp_adam"]["eta"] == 0.3
    assert wall["eval"]["mpc"]["steps"] == 10
    assert wall["eval"]["mpc"]["eta"] == 0.2
    long = get_preset("longhorizon")
    assert long["eval"]["horizon_gap"] == 50
    assert long["eval"]["mpc"]["steps"] == 20
    assert long["eval"]["mpc"]["k_exec"] == 1


def test_preset_flag_requires_known_name(tmp_path):
    assert _run("gen-data", "--preset", "galaxy") == 2
    assert _run("gen-data") == 2  # neither config nor preset


def test_preset_config_hashes_are_pinned():
    assert {name: config_hash(get_preset(name)) for name in PRESETS} == {
        "wall-baseline":
            "0b2e67ba76bce10213675380d132af1be45d51a575599cbd30ddf39d7ce04829",
        "wall-awm":
            "f63632b237a4218658a6d125dcdbca8329da6706dfd0250904f5dd57ec3cefe0",
        "wall-owm":
            "e962ff652041ae4ad9312510d1a5a8c0c780efb252b7c5880c7e1d0c5fd05dfd",
        "pointmass-baseline":
            "3fc51e26b6d08edb08087ab836e65d7cd013faa4c5110a2305aecfc4591a462e",
        "longhorizon":
            "e2432e81b644e629acb00701634023ce4711b9c942f81dbaff93ec568f735f68",
    }


# --- builders: every key a section sets reaches the object it configures ----


def test_build_planner_carries_every_planner_key(tmp_path):
    spec = envs.wall2d_spec()
    net = initnet.make_initnet(4, spec.action_dim, 7, spec.a_max, hidden=(4,))
    initnet.save_initnet(str(tmp_path / "initnet"), net)
    sections = {
        "gbp": {"kind": "gbp", "horizon": 7, "iterations": 11,
                "optimizer": "adam", "eta": 0.07, "loss": "late-heavy",
                "init": "initnet", "clamp": False, "return_best": False,
                "initnet_path": str(tmp_path / "initnet")},
        "cem": {"kind": "cem", "horizon": 9, "n_pop": 40, "k_elite": 4,
                "iterations": 3, "sigma0": 0.7, "cov_mode": "diagonal",
                "jitter": 1e-4},
        "gradcem": {"kind": "gradcem", "horizon": 8, "n_pop": 12,
                    "k_elite": 2, "iterations": 4, "sigma0": 0.6,
                    "cov_mode": "diagonal", "jitter": 1e-5,
                    "refine_steps": 5, "refine_eta": 0.05},
        "mppi": {"kind": "mppi", "horizon": 6, "samples": 16, "sigma": 0.2,
                 "temperature": 0.5, "iterations": 3},
    }
    for kind, section in sections.items():
        assert set(section) == set(cli._PLANNER_KEYS[kind]), kind
        validate_config({"planners": {"p": section}})
    built = {kind: cli.build_planner(kind, section, spec)
             for kind, section in sections.items()}

    gbp = built["gbp"]
    plan = gbp.plan
    assert (gbp.kind, gbp.horizon, plan.horizon) == ("gbp", 7, 7)
    assert (plan.iterations, plan.optimizer, plan.eta) == (11, "adam", 0.07)
    assert plan.loss.mode == "weighted"
    assert np.array_equal(plan.loss.weights, wgl_late_heavy(7).weights)
    assert plan.init == "initnet"
    assert plan.init_actions(np.zeros(4), np.ones(4)).shape == (7, spec.action_dim)
    assert (plan.clamp_actions, plan.return_best, plan.a_max) == \
        (False, False, spec.a_max)

    assert built["cem"] == PlannerSpec(
        "cem", 9, cem=CemConfig(40, 4, 3, 0.7, "diagonal", 1e-4))
    assert built["gradcem"] == PlannerSpec(
        "gradcem", 8, cem=CemConfig(12, 2, 4, 0.6, "diagonal", 1e-5),
        refine=RefineConfig(5, 0.05))
    assert built["mppi"] == PlannerSpec("mppi", 6, mppi=MppiConfig(16, 0.2, 0.5, 3))


def test_build_planner_leaves_omitted_keys_to_the_callee():
    spec = envs.wall2d_spec()
    assert cli.build_planner("g", {"kind": "gbp"}, spec) == PlannerSpec(
        "gbp", plan=PlanConfig(a_max=spec.a_max))
    assert cli.build_planner("c", {"kind": "cem"}, spec) == PlannerSpec(
        "cem", cem=CemConfig())
    assert cli.build_planner("r", {"kind": "gradcem"}, spec) == PlannerSpec(
        "gradcem", cem=CemConfig(), refine=RefineConfig())
    assert cli.build_planner("m", {"kind": "mppi"}, spec) == PlannerSpec(
        "mppi", mppi=MppiConfig())


def _spy(monkeypatch, module, name) -> dict:
    """Record the arguments of `module.name` and call through."""
    real = getattr(module, name)
    seen = {}

    def spy(*args, **kwargs):
        seen["args"], seen["kwargs"] = args, kwargs
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


def test_finetune_adv_carries_every_section_key(pipeline, tmp_path, monkeypatch):
    cfg, _ = pipeline
    section = {"out_path": str(tmp_path / "adv-x"), "lambda_a": 0.4,
               "lambda_z": 0.3, "eps_a": 0.01, "eps_z": 0.02, "alpha_a": 0.005,
               "alpha_z": 0.006, "attack": "pgd", "pgd_steps": 2,
               "radius_mode": "adaptive", "per_dimension_std": True,
               "epochs": 2, "batch_size": 2, "lr": 5e-4, "dump_perturbed": True,
               "perturbed_path": str(tmp_path / "perturbed-x")}
    assert set(section) == set(cli._SCHEMA["finetune"]["adversarial"])
    cfg["finetune"]["adversarial"] = section
    seen = _spy(monkeypatch, finetune, "adversarial_wm")
    assert _run("finetune-adv", "--config", _write(tmp_path, cfg)) == 0
    assert seen["args"][2] == finetune.PerturbationConfig(
        lambda_a=0.4, lambda_z=0.3, eps_a=0.01, eps_z=0.02, alpha_a=0.005,
        alpha_z=0.006, attack="pgd", pgd_steps=2, radius_mode="adaptive",
        per_dimension_std=True)
    kwargs = dict(seen["kwargs"])
    kwargs.pop("seed")
    assert kwargs == {"epochs": 2, "batch_size": 2, "lr": 5e-4,
                      "keep_perturbed": True}
    worldmodel.load_model(section["out_path"])
    _, manifest = load_dataset(section["perturbed_path"])
    assert manifest["provenance"] == "adversarial"


def test_finetune_online_carries_every_section_key(pipeline, tmp_path,
                                                   monkeypatch):
    cfg, _ = pipeline
    section = {"out_path": str(tmp_path / "owm-x"),
               "corrected_path": str(tmp_path / "corrected-x"),
               "iterations": 1, "plan_iterations": 2, "horizon": 3,
               "mix_ratio": 0.25, "lr": 2e-3, "finetune_steps": 1,
               "batch_size": 4, "plan_optimizer": "sgd", "plan_eta": 0.1}
    assert set(section) == set(cli._SCHEMA["finetune"]["online"])
    cfg["finetune"]["online"] = section
    seen = _spy(monkeypatch, finetune, "online_wm")
    assert _run("finetune-online", "--config", _write(tmp_path, cfg)) == 0
    assert seen["args"][4] == finetune.OnlineConfig(
        iterations=1, plan_iterations=2, horizon=3, mix_ratio=0.25, lr=2e-3,
        finetune_steps=1, batch_size=4, plan_optimizer="sgd", plan_eta=0.1)
    worldmodel.load_model(section["out_path"])
    corr, _ = load_dataset(section["corrected_path"])
    assert len(corr.trajectories) == 1


def test_eval_carries_every_mpc_key(pipeline, tmp_path, monkeypatch):
    cfg, _ = pipeline
    mpc = {"steps": 3, "k_exec": 2, "plan_iters": 4, "eta": 0.05,
           "warm_start": True}
    assert set(mpc) == set(cli._SCHEMA["eval"]["mpc"])
    cfg["eval"].update(mode="mpc", mpc=mpc)
    seen = _spy(monkeypatch, evalreport, "evaluate")
    assert _run("eval", "--config", _write(tmp_path, cfg), "--workers", "1") == 0
    assert seen["kwargs"]["mpc_cfg"] == MpcConfig(steps=3, k_exec=2, plan_iters=4,
                                                  eta=0.05, warm_start=True)

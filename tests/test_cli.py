import json
import os

import numpy as np
import pytest

from reference_training import trajectory_teacher_forcing
from wmplanlab import (cli, envs, evalreport, finetune, initnet, tensorio,
                       worldmodel)
from wmplanlab.cli import ConfigError, config_hash, load_config, validate_config
from wmplanlab.data import load_dataset
from wmplanlab.planners import (CemConfig, MpcConfig, MppiConfig, PlanConfig,
                                RefineConfig, wgl_late_heavy)
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
    assert data.actions.shape == (1, 1, 2) and data.obs.shape == (1, 2, 2)


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
    first = (tmp_path / "data" / "data.bin").read_bytes()
    _run("gen-data", "--config", path, "--force")
    assert (tmp_path / "data" / "data.bin").read_bytes() == first


def test_gen_data_force_with_fewer_trajectories_leaves_no_stale_file(tmp_path):
    cfg = tiny_config(tmp_path)
    path = _write(tmp_path, cfg)
    assert _run("gen-data", "--config", path) == 0
    assert _run("gen-data", "--config", path, "--force",
                "--set", "dataset.n_traj=2") == 0
    assert sorted(os.listdir(tmp_path / "data")) == ["data.bin", "manifest.json",
                                                     "run.json"]
    data, manifest = load_dataset(cfg["dataset"]["path"])
    assert len(data) == manifest["count"] == 2


@pytest.mark.parametrize("command, out", [
    ("gen-data", "data"), ("finetune-adv", "model-adv/perturbed"),
    ("finetune-online", "data-corr")])
def test_overwriting_an_old_layout_dataset_removes_its_trajectory_files(
        pipeline, tmp_path, command, out):
    cfg, path = pipeline
    old = tmp_path / out
    old.mkdir(parents=True, exist_ok=True)
    for i in range(3):
        (old / f"traj_{i}.bin").write_bytes(b"WMT1")
    argv = [command, "--config", path]
    argv += {"gen-data": ["--force"],
             "finetune-adv": ["--set", "finetune.adversarial.dump_perturbed=true"],
             "finetune-online": []}[command]
    assert _run(*argv) == 0
    assert not [name for name in os.listdir(old) if name.startswith("traj_")]
    load_dataset(str(old))


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
    ref, _ = trajectory_teacher_forcing(
        base, encoded, epochs=1, batch_size=3, lr=1e-3,
        seed=derive_seed(cfg["seed"], "finetune-adv"))
    for w1, w2 in zip(tuned.weights, ref.weights):
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
    assert corr.actions.shape == (2, 4, 2)  # iterations, horizon, d_a


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
    report = os.path.join(cfg["eval"]["out_path"], "report.json")
    assert _run("eval", "--config", path, "--workers", "1") == 0
    open_loop = json.load(open(report))
    assert _run("eval", "--config", path, "--set", "eval.mode=mpc", "--set",
                'eval.planners=["cem_small"]', "--workers", "1") == 0
    body = json.load(open(report))
    assert body["mode"] == "mpc"
    assert [cell["planner"] for cell in body["cells"]] == ["cem_small"]
    assert body["config_hash"] != open_loop["config_hash"]
    assert _run("eval", "--config", path, "--set", "eval.models={}") == 2


@pytest.mark.parametrize("mode", ["open-loop", "mpc"])
def test_the_number_of_workers_changes_no_report_byte(pipeline, mode):
    cfg, path = pipeline
    out = cfg["eval"]["out_path"]
    reports = []
    for workers in ("1", "2"):
        assert _run("eval", "--config", path, "--workers", workers,
                    "--set", f"eval.mode={mode}", "--set", "eval.n_tasks=5",
                    "--set", 'eval.planners=["gbp_gd", "cem_small"]') == 0
        reports.append([open(os.path.join(out, name), "rb").read()
                        for name in ("report.json", "report.csv")])
    assert reports[0] == reports[1]


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


@pytest.mark.parametrize("argv, key, value", [
    (["gen-data", "--force"], "dataset.policy", "expert"),
    (["eval", "--workers", "1"], "eval.mode", "closed"),
    (["eval", "--workers", "1"], "planners.cem_small.cov_mode", "diag"),
    (["finetune-adv"], "finetune.adversarial.attack", "pgdx"),
    (["finetune-adv"], "finetune.adversarial.radius_mode", "adapt"),
])
def test_a_value_outside_its_allowed_set_exits_with_code_2(pipeline, capsys,
                                                           argv, key, value):
    _, path = pipeline
    assert _run(*argv, "--config", path, "--set", f"{key}={value}") == 2
    assert f"config error: {key}: expected one of" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--mode", "--models", "--planners"])
def test_eval_takes_no_flag_that_bypasses_the_config(flag):
    # eval.mode, eval.models and eval.planners are set with --set, so the
    # config hash of a report covers them
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["eval", flag, "mpc"])
    assert exc.value.code == 2


def _damage(ckpt: str, how: str) -> None:
    """Drop the last layer of a checkpoint's weights.bin, or cut the file
    inside the last tensor's data or inside its header."""
    path = os.path.join(ckpt, "weights.bin")
    weights = tensorio.load_tensors(path)
    if how == "last-layer":
        tensorio.save_tensors(path, weights[:-2])
        return
    head = sum(len(tensorio.tensor_bytes(w)) for w in weights[:-1])
    with open(path, "r+b") as fh:
        fh.truncate(head + 6 if how == "cut-header" else os.path.getsize(path) - 8)


@pytest.mark.parametrize("how", ["last-layer", "cut-data", "cut-header"])
def test_eval_rejects_a_damaged_world_model(pipeline, capsys, how):
    cfg, path = pipeline
    _damage(cfg["model"]["path"], how)
    assert _run("eval", "--config", path, "--workers", "1") == 2
    assert f"checkpoint {cfg['model']['path']}: " in capsys.readouterr().err


@pytest.mark.parametrize("how", ["last-layer", "cut-data", "cut-header"])
def test_eval_rejects_a_damaged_init_net(pipeline, capsys, how):
    cfg, path = pipeline
    ckpt = cfg["initnet"]["path"]
    planner = {"kind": "gbp", "horizon": 3, "iterations": 2, "init": "initnet",
               "initnet_path": ckpt}
    args = ["--workers", "1", "--set", "planners.g_init=" + json.dumps(planner),
            "--set", 'eval.planners=["g_init"]']
    assert _run("train-initnet", "--config", path) == 0
    assert _run("eval", "--config", path, *args) == 0
    _damage(ckpt, how)
    assert _run("eval", "--config", path, *args) == 2
    assert f"checkpoint {ckpt}: " in capsys.readouterr().err


@pytest.mark.parametrize("horizon, d_a", [(4, 2), (3, 3)])
def test_eval_rejects_an_init_net_that_does_not_fit_the_planner(pipeline, capsys,
                                                                 horizon, d_a):
    # an init net of the tiny config's horizon 3 under a horizon-4 planner,
    # or one proposing 3-d actions in a 2-d action space
    cfg, path = pipeline
    ckpt = cfg["initnet"]["path"]
    if d_a == 2:
        assert _run("train-initnet", "--config", path) == 0
    else:
        initnet.save_initnet(ckpt, initnet.make_initnet(8, d_a, 3, 1.0, hidden=(4,)))
    planner = {"kind": "gbp", "horizon": horizon, "iterations": 2,
               "init": "initnet", "initnet_path": ckpt}
    assert _run("eval", "--config", path, "--workers", "1",
                "--set", "planners.g_init=" + json.dumps(planner),
                "--set", 'eval.planners=["g_init"]') == 2
    assert "planners.g_init.initnet_path" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "gap", "landscape", "finetune-adv",
                                     "finetune-online"])
def test_a_model_trained_under_another_encoder_exits_with_code_2(pipeline, capsys,
                                                                 command):
    cfg, path = pipeline
    assert _run(command, "--config", path, "--set", "encoder.seed=1") == 2
    err = capsys.readouterr().err
    assert f"checkpoint {cfg['model']['path']}: trained under another encoder" in err


@pytest.mark.parametrize("how", ["d_z", "encoder"])
def test_eval_rejects_an_init_net_of_another_latent_space(pipeline, capsys, how):
    # an init net reading 5-d latents under the tiny config's 8-d encoder, or
    # one trained under another encoder of the same size
    cfg, path = pipeline
    ckpt = cfg["initnet"]["path"]
    if how == "d_z":
        initnet.save_initnet(ckpt, initnet.make_initnet(5, 2, 3, 1.0, hidden=(4,)))
    else:
        assert _run("train-initnet", "--config", path, "--set", "encoder.seed=1") == 0
    planner = {"kind": "gbp", "horizon": 3, "iterations": 2, "init": "initnet",
               "initnet_path": ckpt}
    assert _run("eval", "--config", path, "--workers", "1",
                "--set", "planners.g_init=" + json.dumps(planner),
                "--set", 'eval.planners=["g_init"]') == 2
    err = capsys.readouterr().err
    assert "planners.g_init.initnet_path" in err
    assert ("reads d_z 5" if how == "d_z" else "trained under another encoder") in err


def _edit_manifest(data_dir: str, **changes) -> None:
    manifest_path = os.path.join(data_dir, "manifest.json")
    manifest = json.load(open(manifest_path))
    manifest.update(changes)
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)


@pytest.mark.parametrize("how", ["missing-data", "cut-data", "missing-manifest",
                                 "schema-version", "count"])
def test_a_damaged_dataset_exits_with_code_2(tmp_path, capsys, how):
    cfg = tiny_config(tmp_path)
    path = _write(tmp_path, cfg)
    assert _run("gen-data", "--config", path) == 0
    data_dir = cfg["dataset"]["path"]
    if how == "missing-data":
        os.remove(os.path.join(data_dir, "data.bin"))
        expect = "data.bin is missing"
    elif how == "cut-data":
        with open(os.path.join(data_dir, "data.bin"), "r+b") as fh:
            fh.truncate(os.path.getsize(fh.name) - 8)
        expect = "truncated"
    elif how == "missing-manifest":
        os.remove(os.path.join(data_dir, "manifest.json"))
        expect = "no manifest.json"
    elif how == "schema-version":
        # a directory of the one-file-per-trajectory layout
        _edit_manifest(data_dir, schema_version=1)
        os.rename(os.path.join(data_dir, "data.bin"),
                  os.path.join(data_dir, "traj_0.bin"))
        expect = "manifest schema_version 1, expected 2; rerun gen-data"
    else:
        _edit_manifest(data_dir, count=5)
        expect = "data.bin holds 6 trajectories, the manifest lists 5"
    with pytest.raises(ValueError, match=expect):
        load_dataset(data_dir)
    assert _run("train", "--config", path) == 2
    assert f"dataset {data_dir}: {expect}" in capsys.readouterr().err


def test_a_latent_dataset_at_the_dataset_path_exits_with_code_2(pipeline, capsys,
                                                                 tmp_path):
    cfg, path = pipeline
    perturbed = str(tmp_path / "perturbed")
    assert _run("finetune-adv", "--config", path, "--set",
                "finetune.adversarial.dump_perturbed=true", "--set",
                f"finetune.adversarial.perturbed_path={perturbed}") == 0
    assert _run("train", "--config", path, "--set", f"dataset.path={perturbed}",
                "--set", f"model.path={tmp_path / 'model-2'}") == 2
    assert (f"dataset {perturbed} holds latents, not observations"
            in capsys.readouterr().err)
    assert not (tmp_path / "model-2").exists()


@pytest.mark.parametrize("command, out", [
    ("eval", "eval"),
    ("gap", "gap"),
    ("landscape", "landscape"),
    ("train-initnet", "initnet"),
    ("finetune-online", "model-owm"),
], ids=["eval", "gap", "landscape", "train-initnet", "finetune-online"])
def test_a_horizon_longer_than_the_trajectories_exits_2_before_writing(
        pipeline, capsys, tmp_path, command, out):
    # the tiny dataset's trajectories have T = 9 steps
    cfg, path = pipeline
    assert _run("finetune-adv", "--config", path) == 0
    cfg["eval"]["horizon_gap"] = 20
    for section in (cfg["gap"], cfg["landscape"], cfg["initnet"],
                    cfg["finetune"]["online"]):
        section["horizon"] = 20
    cfg["planners"]["gbp_gd"]["horizon"] = 20
    argv = [command, "--config", _write(tmp_path, cfg)]
    assert _run(*argv, *(["--workers", "1"] if command == "eval" else [])) == 2
    assert ("horizon 20 is longer than the dataset's trajectories (T = 9 steps)"
            in capsys.readouterr().err)
    assert not (tmp_path / out).exists()


def test_train_exits_3_when_the_loss_diverges(tmp_path, nan_on_call, capsys):
    cfg = tiny_config(tmp_path)
    path = _write(tmp_path, cfg)
    assert _run("gen-data", "--config", path) == 0
    nan_on_call(2)
    assert _run("train", "--config", path) == 3
    assert "numeric failure: training loss diverged" in capsys.readouterr().err


def test_missing_dataset_is_config_error(tmp_path):
    cfg = tiny_config(tmp_path)
    path = _write(tmp_path, cfg)
    assert _run("train", "--config", path) == 2  # dataset never generated


def test_an_exported_seed_env_var_does_not_change_the_config(tmp_path, monkeypatch):
    path = _write(tmp_path, tiny_config(tmp_path))

    class Args:
        preset = None
        config = path
        set = None

    plain = load_config(Args())
    for value in ("123", "abc"):
        monkeypatch.setenv("WMPLANLAB_SEED", value)
        assert load_config(Args()) == plain
    Args.set = ["seed=123"]
    assert load_config(Args())["seed"] == 123


@pytest.mark.parametrize("command, key, out", [
    ("train", "model.train.epochs", "model/weights.bin"),
    ("train", "model.train.batch_size", "model/weights.bin"),
    ("finetune-adv", "finetune.adversarial.epochs", "model-adv/weights.bin"),
    ("finetune-adv", "finetune.adversarial.batch_size", "model-adv/weights.bin"),
    ("finetune-online", "finetune.online.batch_size", "model-owm/weights.bin"),
    ("train-initnet", "initnet.iterations", "initnet/weights.bin"),
    ("eval", "eval.n_tasks", "eval"),
    ("eval", "planners.cem_small.n_pop", "eval"),
    ("landscape", "landscape.n_tasks", "landscape"),
    ("landscape", "landscape.resolution", "landscape"),
    ("gen-data", "dataset.n_traj", "data-2"),
    ("gap", "gap.n", "gap"),
    ("finetune-adv", "finetune.adversarial.pgd_steps", "model-adv/weights.bin"),
    ("finetune-online", "finetune.online.horizon", "model-owm/weights.bin"),
    ("finetune-online", "finetune.online.plan_iterations", "model-owm/weights.bin"),
    ("train-initnet", "initnet.horizon", "initnet/weights.bin"),
    ("eval", "planners.gbp_gd.horizon", "eval"),
    ("eval", "planners.gbp_gd.iterations", "eval"),
    ("eval", "planners.cem_small.horizon", "eval"),
    ("eval", "planners.cem_small.iterations", "eval"),
    ("eval", "planners.cem_small.k_elite", "eval"),
    ("eval", "planners.mppi_small.horizon", "eval"),
    ("eval", "planners.mppi_small.iterations", "eval"),
    ("eval", "planners.mppi_small.samples", "eval"),
    ("eval", "eval.mpc.steps", "eval"),
    ("eval", "eval.mpc.k_exec", "eval"),
    ("eval", "eval.mpc.plan_iters", "eval"),
    ("gap", "gap.horizon", "gap"),
    ("gap", "gap.plan.iterations", "gap"),
    ("landscape", "landscape.horizon", "landscape"),
    ("landscape", "landscape.plan.iterations", "landscape"),
    ("gen-data", "env.frameskip", "data-2"),
    ("eval", "eval.horizon_gap", "eval"),
], ids=["train-epochs", "train-batch", "adv-epochs", "adv-batch", "online-batch",
        "initnet-iterations", "eval-tasks", "cem-population", "landscape-tasks",
        "landscape-resolution", "gen-data-trajectories", "gap-windows",
        "adv-pgd-steps", "online-horizon", "online-plan-iterations",
        "initnet-horizon", "gbp-horizon", "gbp-iterations", "cem-horizon",
        "cem-iterations", "cem-elites", "mppi-horizon", "mppi-iterations",
        "mppi-samples", "mpc-steps", "mpc-k-exec", "mpc-plan-iters", "gap-horizon",
        "gap-plan-iterations", "landscape-horizon", "landscape-plan-iterations",
        "gen-data-frameskip", "eval-horizon-gap"])
def test_a_loop_size_of_0_exits_2_before_writing(tmp_path, capsys, command, key, out):
    cfg = tiny_config(tmp_path)
    cfg["planners"]["mppi_small"] = {"kind": "mppi", "horizon": 4, "samples": 4}
    cfg["eval"]["planners"] = ["gbp_gd", "cem_small", "mppi_small"]
    path = _write(tmp_path, cfg)
    assert _run("gen-data", "--config", path) == 0
    if command not in ("gen-data", "train", "train-initnet"):
        assert _run("train", "--config", path) == 0
    argv = [command, "--config", path, "--set", f"{key}=0"]
    if command == "gen-data":  # into a fresh directory
        argv += ["--set", f"dataset.path={tmp_path / 'data-2'}"]
    assert _run(*argv) == 2
    assert f"{key}: expected an integer >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("traj_len", [1, 0])
def test_a_trajectory_shorter_than_2_exits_2_before_writing(tmp_path, capsys, traj_len):
    path = _write(tmp_path, tiny_config(tmp_path))
    assert _run("gen-data", "--config", path, "--set", f"dataset.traj_len={traj_len}") == 2
    assert (f"dataset.traj_len: expected an integer >= 2, got {traj_len}"
            in capsys.readouterr().err)
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command, key, value, message, out", [
    ("train", "model.hidden", "[0]",
     "model.hidden: expected a list of integers >= 1, got [0]", "model"),
    ("train", "model.hidden", '["a"]',
     "model.hidden: expected a list of integers >= 1, got ['a']", "model"),
    ("train", "encoder.d_z", 7,
     "encoder: random-fourier d_z must be even (sin and cos banks)", "model"),
    ("finetune-online", "finetune.online.iterations", -1,
     "finetune.online.iterations: expected an integer >= 0, got -1", "model-owm"),
    ("finetune-online", "finetune.online.finetune_steps", -1,
     "finetune.online.finetune_steps: expected an integer >= 0, got -1",
     "model-owm"),
], ids=["hidden-zero", "hidden-string", "odd-d-z", "online-iterations",
        "online-finetune-steps"])
def test_a_setting_the_callee_would_reject_late_exits_2_before_writing(
        tmp_path, capsys, command, key, value, message, out):
    path = _write(tmp_path, tiny_config(tmp_path))
    assert _run("gen-data", "--config", path) == 0
    if command != "train":
        assert _run("train", "--config", path) == 0
    assert _run(command, "--config", path, "--set", f"{key}={value}") == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("command, key, value, message, out", [
    ("train", "model.train.lr", 0, None, "model"),
    ("finetune-adv", "finetune.adversarial.lr", -1, None, "model-adv"),
    ("finetune-online", "finetune.online.lr", 0, None, "model-owm"),
    ("train-initnet", "initnet.lr", 0, None, "initnet"),
    ("gap", "gap.plan.eta", 0, None, "gap"),
    ("landscape", "landscape.plan.eta", 0, None, "landscape"),
    ("finetune-online", "finetune.online.plan_eta", 0, None, "model-owm"),
    ("eval", "eval.mpc.eta", 0, None, "eval"),
    ("eval", "planners.gradcem_small.refine_eta", 0, None, "eval"),
    ("eval", "planners.mppi_small.temperature", 0, None, "eval"),
    ("finetune-adv", "finetune.adversarial.lambda_a", -1,
     "finetune.adversarial: scaling factors must be >= 0", "model-adv"),
    ("finetune-online", "finetune.online.mix_ratio", 1.5,
     "finetune.online: mix_ratio must lie in [0, 1]", "model-owm"),
], ids=["train-lr", "adv-lr", "online-lr", "initnet-lr", "gap-eta",
        "landscape-eta", "online-plan-eta", "mpc-eta", "gradcem-refine-eta",
        "mppi-temperature", "adv-lambda-a", "online-mix-ratio"])
def test_an_out_of_range_setting_exits_2_before_writing(tmp_path, capsys, command,
                                                        key, value, message, out):
    cfg = tiny_config(tmp_path)
    cfg["planners"]["gradcem_small"] = {"kind": "gradcem", "horizon": 4,
                                        "n_pop": 6, "k_elite": 2}
    cfg["planners"]["mppi_small"] = {"kind": "mppi", "horizon": 4, "samples": 4}
    cfg["eval"].update(mode="mpc", planners=["gbp_gd", "gradcem_small",
                                             "mppi_small"])
    path = _write(tmp_path, cfg)
    assert _run("gen-data", "--config", path) == 0
    if command not in ("train", "train-initnet"):
        assert _run("train", "--config", path) == 0
    if command == "landscape":
        assert _run("finetune-adv", "--config", path) == 0
    assert _run(command, "--config", path, "--set", f"{key}={value}") == 2
    # the schema names the key; a config object's own check names its section
    expect = message or f"{key}: expected a number > 0, got {value}"
    assert f"config error: {expect}" in capsys.readouterr().err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("override, message", [
    ("planners.cem_small.k_elite=11",
     "planners.cem_small: need 1 <= k_elite <= n_pop"),
    ("planners.gradcem_small.refine_steps=-1",
     "planners.gradcem_small: refine steps must be >= 0"),
    ("eval.mpc.k_exec=9",
     "eval.mpc.k_exec 9 is longer than the horizon of planner(s) gbp_gd, "
     "gradcem_small"),
], ids=["cem-elites-above-population", "negative-refine-steps",
        "k-exec-above-horizon"])
def test_a_planner_that_rejects_its_settings_exits_2_before_writing(
        pipeline, capsys, tmp_path, override, message):
    cfg, _ = pipeline
    cfg["planners"]["gradcem_small"] = {"kind": "gradcem", "horizon": 3,
                                        "n_pop": 6, "k_elite": 2, "iterations": 1}
    cfg["planners"]["cem_small"]["horizon"] = 9
    cfg["eval"]["planners"] = ["gbp_gd", "cem_small", "gradcem_small"]
    path = _write(tmp_path, cfg)
    assert _run("eval", "--config", path, "--set", "eval.mode=mpc",
                "--workers", "1", "--set", override) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_k_exec_is_not_checked_against_the_horizon_in_open_loop_mode(pipeline):
    cfg, path = pipeline
    assert _run("eval", "--config", path, "--set", "eval.mode=open-loop",
                "--workers", "1", "--set", "eval.mpc.k_exec=9") == 0


@pytest.mark.parametrize("override, differ", [
    ("env.frameskip=3", "frameskip"),
    ("env.kind=pointmass", "kind, walls, doors, a_max, damping"),
], ids=["frameskip", "kind"])
def test_a_dataset_of_another_env_exits_with_code_2(tmp_path, capsys, override,
                                                    differ):
    cfg = tiny_config(tmp_path)
    path = _write(tmp_path, cfg)
    assert _run("gen-data", "--config", path) == 0
    assert _run("train", "--config", path, "--set", override) == 2
    assert (f"dataset {cfg['dataset']['path']}: generated under another env "
            f"({differ} differ from the config)") in capsys.readouterr().err
    assert not (tmp_path / "model" / "weights.bin").exists()


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

    plan = built["gbp"]
    assert type(plan) is PlanConfig
    assert (plan.horizon, plan.iterations, plan.optimizer, plan.eta) == \
        (7, 11, "adam", 0.07)
    assert np.array_equal(plan.loss.weights, wgl_late_heavy(7).weights)
    assert plan.init == "initnet"
    assert plan.init_actions(np.zeros(4), np.ones(4)).shape == (7, spec.action_dim)
    assert (plan.clamp_actions, plan.return_best, plan.a_max) == \
        (False, False, spec.a_max)

    assert built["cem"] == CemConfig(9, 40, 4, 3, 0.7, "diagonal", 1e-4)
    assert built["gradcem"] == CemConfig(8, 12, 2, 4, 0.6, "diagonal", 1e-5,
                                         refine=RefineConfig(5, 0.05))
    assert built["mppi"] == MppiConfig(6, 16, 0.2, 0.5, 3)


def test_build_planner_leaves_omitted_keys_to_the_callee():
    spec = envs.wall2d_spec()
    assert cli.build_planner("g", {"kind": "gbp"}, spec) == PlanConfig(a_max=spec.a_max)
    assert cli.build_planner("c", {"kind": "cem"}, spec) == CemConfig()
    assert cli.build_planner("r", {"kind": "gradcem"}, spec) == CemConfig(
        refine=RefineConfig())
    assert cli.build_planner("m", {"kind": "mppi"}, spec) == MppiConfig()


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
    assert len(corr) == 1


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

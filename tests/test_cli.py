import functools
import json
import multiprocessing
import os
import re
import shutil
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

import preset_digest
from reference_training import trajectory_teacher_forcing
from wmplanlab import cli, envs, evalreport, finetune, tensorio, worldmodel
from wmplanlab.cli import ConfigError, config_hash, load_config, validate_config
from wmplanlab.config import config_key
from wmplanlab.data import Dataset, load_dataset, save_dataset
from wmplanlab.planners import (CemConfig, MpcConfig, MppiConfig, PlanConfig,
                                RefineConfig)
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
        "model": {"path": f"{root}/model", "hidden": [8],
                  "train": {"epochs": 2, "batch_size": 16, "lr": 1e-3}},
        "finetune": {
            "adversarial": {"out_path": f"{root}/model-adv", "lambda_a": 0.3,
                            "lambda_z": 0.1, "epochs": 1,
                            "batch_size": 3, "lr": 1e-3},
            "online": {"out_path": f"{root}/model-owm",
                       "corrected_path": f"{root}/data-corr", "iterations": 2,
                       "plan_iterations": 3, "horizon": 4, "mix_ratio": 0.5,
                       "lr": 1e-3, "finetune_steps": 2, "batch_size": 8},
        },
        "planners": {
            "gbp_gd": {"kind": "gbp", "horizon": 4, "iterations": 5,
                       "optimizer": "sgd", "eta": 0.5, "loss": "final"},
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


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


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


def test_train_writes_checkpoint_and_manifest(pipeline):
    cfg, path = pipeline
    model, meta = worldmodel.load_model(cfg["model"]["path"])
    assert model.d_z == 8
    assert "encoder_hash" in meta and "config_hash" in meta
    run = tensorio.read_json(os.path.join(cfg["model"]["path"], "run.json"))
    assert run["config_hash"] == meta["config_hash"]
    trace = tensorio.read_json(os.path.join(cfg["model"]["path"], "train_trace.json"))
    assert len(trace["epoch_losses"]) == 2


@pytest.mark.parametrize("command, out, keys", [
    ("train", "model.path", ["batch_losses", "epoch_losses"]),
    ("finetune-adv", "finetune.adversarial.out_path", ["batch_losses", "epoch_losses"]),
    # the online iterations are not epochs, so it keeps no epoch losses
    ("finetune-online", "finetune.online.out_path", ["batch_losses"])])
def test_train_trace_holds_the_losses_each_trainer_keeps(pipeline, command, out, keys):
    cfg, path = pipeline
    assert _run(command, "--config", path) == 0
    outdir = functools.reduce(dict.get, out.split("."), cfg)
    trace = tensorio.read_json(os.path.join(outdir, "train_trace.json"))
    assert sorted(trace) == keys
    assert trace["batch_losses"] and all(np.isfinite(trace["batch_losses"]))


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


def test_eval_single_cell_and_deterministic_rerun(pipeline, tmp_path):
    cfg, path = pipeline
    assert _run("eval", "--config", path, "--workers", "1") == 0
    out = cfg["eval"]["out_path"]
    first = _read_bytes(os.path.join(out, "report.json"))
    first_csv = _read_bytes(os.path.join(out, "report.csv"))
    body = json.loads(first)
    assert len(body["cells"]) == 1
    assert body["cells"][0]["n_tasks"] == 2
    # byte-identical rerun
    assert _run("eval", "--config", path, "--workers", "1") == 0
    assert _read_bytes(os.path.join(out, "report.json")) == first
    assert _read_bytes(os.path.join(out, "report.csv")) == first_csv


def test_eval_mode_and_filters(pipeline):
    cfg, path = pipeline
    report = os.path.join(cfg["eval"]["out_path"], "report.json")
    assert _run("eval", "--config", path, "--workers", "1") == 0
    open_loop = tensorio.read_json(report)
    assert _run("eval", "--config", path, "--set", "eval.mode=mpc", "--set",
                'eval.planners=["cem_small"]', "--workers", "1") == 0
    body = tensorio.read_json(report)
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
        reports.append([_read_bytes(os.path.join(out, name))
                        for name in ("report.json", "report.csv")])
    assert reports[0] == reports[1]


def test_eval_on_a_forkserver_pool_writes_the_report_of_one_worker(pipeline,
                                                                   monkeypatch):
    # under the spawn and forkserver start methods every input of the grid is
    # pickled: the cross-room rule and the planner configs among them
    cfg, path = pipeline
    monkeypatch.setattr(evalreport, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("forkserver")))
    reports = []
    for workers in ("1", "2"):
        assert _run("eval", "--config", path, "--workers", workers,
                    "--set", "eval.require_cross_room=true", "--set", "eval.n_tasks=3",
                    "--set", 'eval.planners=["gbp_gd", "cem_small"]') == 0
        reports.append(_read_bytes(os.path.join(cfg["eval"]["out_path"], "report.json")))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_eval_exits_2_when_no_task_crosses_rooms(tmp_path, capsys, workers):
    # one random trajectory of two steps, which stays in its room
    path = _write(tmp_path, tiny_config(tmp_path))
    small = ["--set", "dataset.n_traj=1", "--set", "dataset.traj_len=3",
             "--set", "dataset.policy=random"]
    assert _run("gen-data", "--config", path, *small) == 0
    assert _run("train", "--config", path, *small) == 0
    assert _run("eval", "--config", path, *small, "--workers", workers,
                "--set", "eval.horizon_gap=1",
                "--set", "eval.require_cross_room=true") == 2
    err = capsys.readouterr().err
    assert ("config error: eval.require_cross_room: no cross-room task in 200 draws "
            "at eval.horizon_gap 1") in err
    assert not (tmp_path / "eval").exists()


def test_gap_command(pipeline):
    cfg, path = pipeline
    assert _run("gap", "--config", path) == 0
    body = tensorio.read_json(os.path.join(cfg["gap"]["out_path"], "baseline",
                                           "gap.json"))
    assert body["n"] == 2


def test_gap_scores_every_model_on_the_same_windows(pipeline):
    # the same checkpoint under two names: same windows, same plan starts
    cfg, path = pipeline
    models = json.dumps({"a": cfg["model"]["path"], "b": cfg["model"]["path"]})
    assert _run("gap", "--config", path, "--set", f"gap.models={models}") == 0
    out = cfg["gap"]["out_path"]
    for name in ("gap.json", "gap.csv"):
        a, b = (_read_bytes(os.path.join(out, model, name)) for model in "ab")
        assert a == b, name


def test_gap_loads_every_checkpoint_before_writing(pipeline, capsys):
    cfg, path = pipeline
    missing = os.path.join(os.path.dirname(path), "missing-model")
    models = json.dumps({"baseline": cfg["model"]["path"], "other": missing})
    assert _run("gap", "--config", path, "--set", f"gap.models={models}") == 2
    assert f"model checkpoint not found: {missing}" in capsys.readouterr().err
    assert not os.path.exists(cfg["gap"]["out_path"])


def test_landscape_command(pipeline):
    cfg, path = pipeline
    assert _run("finetune-adv", "--config", path) == 0
    assert _run("landscape", "--config", path) == 0
    out = cfg["landscape"]["out_path"]
    summary = tensorio.read_json(os.path.join(out, "summary.json"))
    assert summary["n_tasks"] == 1
    grid = tensorio.read_json(os.path.join(out, "task_0", "landscape.json"))
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
        "eval": {"mpc": {"k_exec": None, "plan_iters": None, "eta": None}},
        "finetune": {"online": {"corrected_path": None}}})
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
    assert _run("train", "--config", path, "--set",
                "finetune.online.corrected_path=null") == 0


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


def test_eval_with_an_unknown_optimizer_exits_with_code_2(pipeline):
    _, path = pipeline
    assert _run("eval", "--config", path, "--workers", "1", "--set",
                "planners.gbp_gd.optimizer=adamw") == 2


def test_finetune_online_with_an_unknown_optimizer_exits_with_code_2(pipeline):
    _, path = pipeline
    assert _run("finetune-online", "--config", path, "--set",
                "finetune.online.plan_optimizer=adamw") == 2


@pytest.mark.parametrize("argv, key, value, message", [
    (["gen-data", "--force"], "dataset.policy", "expert",
     "dataset.policy: expected one of"),
    (["eval", "--workers", "1"], "eval.mode", "closed", "eval.mode: expected one of"),
    # CEM samples from a full covariance, so a covariance mode is an unknown key
    (["eval", "--workers", "1"], "planners.cem_small.cov_mode", "diag",
     "unknown config key: planners.cem_small.cov_mode\n"),
], ids=["argv0-dataset.policy-expert", "argv1-eval.mode-closed",
        "argv2-planners.cem_small.cov_mode-diag"])
def test_a_value_outside_its_allowed_set_exits_with_code_2(pipeline, capsys,
                                                           argv, key, value, message):
    _, path = pipeline
    assert _run(*argv, "--config", path, "--set", f"{key}={value}") == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--mode", "--models", "--planners"])
def test_eval_takes_no_flag_that_bypasses_the_config(flag):
    # eval.mode, eval.models and eval.planners are set with --set, so the
    # config hash of a report covers them
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["eval", flag, "mpc"])
    assert exc.value.code == 2


# how a checkpoint is damaged -> what the config error says of it
DAMAGES = {
    "last-layer": "weights.bin holds shapes", "cut-data": "truncated tensor record",
    "cut-header": "truncated tensor record", "huge-dim": "truncated tensor record",
    "no-model-json": "model.json is missing", "no-weights": "weights.bin is missing",
    "model-json-key": "model.json lacks d_a",
    "d_z-string": "model.json: d_z: expected an integer >= 1, got '4'",
    "d_a-float": "model.json: d_a: expected an integer >= 1, got 2.0",
    "hidden-integer": "model.json: hidden: expected a list of integers >= 1, got 8",
    "residual-string": "model.json: residual: expected true, got 'yes'",
    "json-number": "model.json: expected a JSON object, got int",
    "meta-string": "model.json: meta: expected an object, got 'x'",
    "encoder-hash-number": "model.json: meta.encoder_hash: expected a string, got 5",
    "nan-weight": "weights.bin holds a non-finite entry",
    "weights-directory": "weights.bin is a directory",
    "trailing-bytes": "bad tensor magic b'junk'",
}
# model.json edits: a key to drop (None) or to set
_DESCRIPTIONS = {"model-json-key": ("d_a", None), "d_z-string": ("d_z", "4"),
                 "d_a-float": ("d_a", 2.0), "hidden-integer": ("hidden", 8),
                 "residual-string": ("residual", "yes"), "meta-string": ("meta", "x"),
                 "encoder-hash-number": ("meta", {"encoder_hash": 5})}


def _damage(ckpt: str, how: str) -> None:
    """Drop the last layer of a checkpoint's weights.bin, cut the file inside
    the last tensor's data or inside its header, make the last tensor's
    first dim 2**40, make one weight NaN, append bytes that start no record,
    remove model.json or weights.bin, put a directory in weights.bin's
    place, replace model.json by a JSON number, or drop or mistype a key of
    model.json."""
    if how == "json-number":
        with open(os.path.join(ckpt, "model.json"), "w") as fh:
            fh.write("3")
        return
    if how in ("no-model-json", "no-weights", "weights-directory"):
        os.remove(os.path.join(ckpt, "model.json" if how == "no-model-json"
                               else "weights.bin"))
        if how == "weights-directory":
            os.mkdir(os.path.join(ckpt, "weights.bin"))
        return
    if how in _DESCRIPTIONS:
        key, value = _DESCRIPTIONS[how]
        desc = tensorio.read_json(os.path.join(ckpt, "model.json"))
        if value is None:
            del desc[key]
        else:
            desc[key] = value
        with open(os.path.join(ckpt, "model.json"), "w") as fh:
            json.dump(desc, fh)
        return
    path = os.path.join(ckpt, "weights.bin")
    if how == "trailing-bytes":
        with open(path, "ab") as fh:
            fh.write(b"junk")
        return
    weights = tensorio.load_tensors(path)
    if how == "last-layer":
        tensorio.save_tensors(path, weights[:-2])
        return
    if how == "nan-weight":
        weights[0][0, 0] = np.nan
        tensorio.save_tensors(path, weights)
        return
    head = sum(len(tensorio.tensor_bytes(w)) for w in weights[:-1])
    with open(path, "r+b") as fh:
        if how == "huge-dim":  # after the magic and the rank
            fh.seek(head + 12)
            fh.write((2 ** 40).to_bytes(8, "little"))
            return
        fh.truncate(head + 6 if how == "cut-header" else os.path.getsize(path) - 8)


@pytest.mark.parametrize("how", DAMAGES)
def test_eval_rejects_a_damaged_world_model(pipeline, capsys, how):
    cfg, path = pipeline
    _damage(cfg["model"]["path"], how)
    assert _run("eval", "--config", path, "--workers", "1") == 2
    assert (f"checkpoint {cfg['model']['path']}: {DAMAGES[how]}"
            in capsys.readouterr().err)
    assert not os.path.exists(cfg["eval"]["out_path"])


@pytest.mark.parametrize("command", ["eval", "gap", "landscape", "finetune-adv",
                                     "finetune-online"])
def test_a_model_trained_under_another_encoder_exits_with_code_2(pipeline, capsys,
                                                                 command):
    cfg, path = pipeline
    assert _run(command, "--config", path, "--set", "encoder.seed=1") == 2
    err = capsys.readouterr().err
    assert f"checkpoint {cfg['model']['path']}: trained under another encoder" in err


def _edit_manifest(data_dir: str, *drop: str, **changes) -> None:
    manifest_path = os.path.join(data_dir, "manifest.json")
    manifest = tensorio.read_json(manifest_path)
    manifest.update(changes)
    for key in drop:
        del manifest[key]
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)


@pytest.mark.parametrize("how", ["missing-data", "cut-data", "missing-manifest",
                                 "schema-version", "count", "manifest-key",
                                 "manifest-array", "nan-data", "extra-record",
                                 "trailing-bytes", "content"])
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
        expect = "manifest.json is missing"
    elif how == "schema-version":
        # a directory of the one-file-per-trajectory layout
        _edit_manifest(data_dir, schema_version=1)
        os.rename(os.path.join(data_dir, "data.bin"),
                  os.path.join(data_dir, "traj_0.bin"))
        expect = "manifest schema_version 1, expected 2; rerun gen-data"
    elif how == "count":
        _edit_manifest(data_dir, count=5)
        expect = "data.bin holds 6 trajectories, the manifest lists 5"
    elif how == "nan-data":
        data_bin = os.path.join(data_dir, "data.bin")
        obs, actions = tensorio.load_tensors(data_bin)
        obs[0, 1, 0] = np.nan
        tensorio.save_tensors(data_bin, [obs, actions])
        expect = "data.bin holds a non-finite entry"
    elif how == "extra-record":
        data_bin = os.path.join(data_dir, "data.bin")
        tensorio.save_tensors(data_bin, tensorio.load_tensors(data_bin) + [np.ones(3)])
        expect = "data.bin: expected 2 tensor records, found 3"
    elif how == "trailing-bytes":
        with open(os.path.join(data_dir, "data.bin"), "ab") as fh:
            fh.write(b"junk")
        expect = "bad tensor magic b'junk'"
    elif how == "content":
        _edit_manifest(data_dir, content="observations")
        expect = "manifest content 'observations', expected 'obs' or 'latent'"
    elif how == "manifest-array":
        with open(os.path.join(data_dir, "manifest.json"), "w") as fh:
            fh.write("[]")
        expect = "manifest.json: expected a JSON object, got list"
    else:
        _edit_manifest(data_dir, "content", "provenance")
        expect = "manifest.json lacks content, provenance"
    with pytest.raises(ValueError, match=re.escape(expect)):
        load_dataset(data_dir)
    assert _run("train", "--config", path) == 2
    assert f"dataset {data_dir}: {expect}" in capsys.readouterr().err
    assert not os.path.exists(cfg["model"]["path"])


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


def _files(root) -> dict:
    """The bytes of every file under `root`, by path."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _exits_2_writing_nothing(tmp_path, capsys, command, path, message) -> None:
    """`command` under the config at `path` exits 2 with `message`, prints
    no traceback, warns of nothing and leaves every file under `tmp_path`
    as it was."""
    before = _files(tmp_path)
    workers = ["--workers", "1"] if command == "eval" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(command, "--config", path, *workers) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err
    assert _files(tmp_path) == before


_DATA_COMMANDS = ["train", "finetune-adv", "finetune-online", "eval", "gap", "landscape"]


@pytest.fixture()
def pipeline_adv(pipeline):
    """The pipeline with its adversarial checkpoint, which `landscape` reads."""
    assert _run("finetune-adv", "--config", pipeline[1]) == 0
    return pipeline


@pytest.mark.parametrize("command", _DATA_COMMANDS)
@pytest.mark.parametrize("n, t", [(0, 9), (6, 0)], ids=["no-trajectory", "no-step"])
def test_a_dataset_of_no_trajectory_or_no_step_exits_2_before_writing(
        pipeline_adv, capsys, tmp_path, command, n, t):
    # valid files whose manifest count matches; no writer of the lab makes them
    cfg, path = pipeline_adv
    data_dir = cfg["dataset"]["path"]
    save_dataset(data_dir, Dataset(np.zeros((n, t, 2)), obs=np.full((n, t + 1, 2), 0.3)),
                 env=envs.spec_to_dict(envs.wall2d_spec()), seed=0)
    _exits_2_writing_nothing(
        tmp_path, capsys, command, path,
        f"dataset {data_dir}: data.bin holds {n} trajectories of {t} steps; "
        "a dataset needs one trajectory of one step or more")


@pytest.mark.parametrize("command", _DATA_COMMANDS)
@pytest.mark.parametrize("d_o, d_a", [(4, 2), (2, 3)], ids=["obs", "action"])
def test_a_dataset_of_other_widths_exits_2_before_writing(
        pipeline_adv, capsys, tmp_path, command, d_o, d_a):
    # a manifest that records no env, so only the widths tell the env apart
    cfg, path = pipeline_adv
    data_dir = cfg["dataset"]["path"]
    save_dataset(data_dir, Dataset(np.zeros((6, 9, d_a)), obs=np.full((6, 10, d_o), 0.3)),
                 env=None, seed=0)
    _exits_2_writing_nothing(
        tmp_path, capsys, command, path,
        f"dataset {data_dir}: observation and action widths {d_o} and {d_a}, "
        "the configured env's are 2 and 2")


@pytest.mark.parametrize("command", ["finetune-adv", "finetune-online", "eval", "gap",
                                     "landscape"])
@pytest.mark.parametrize("d_z, d_a", [(16, 2), (8, 3)], ids=["latent", "action"])
def test_a_checkpoint_of_other_widths_exits_2_before_writing(
        pipeline_adv, capsys, tmp_path, command, d_z, d_a):
    # a meta with no encoder_hash, so only the widths tell the encoder apart
    cfg, path = pipeline_adv
    ckpt = cfg["model"]["path"]
    worldmodel.save_model(ckpt, worldmodel.init_world_model(d_z, d_a, (8,), seed=0))
    _exits_2_writing_nothing(
        tmp_path, capsys, command, path,
        f"checkpoint {ckpt}: latent and action widths {d_z} and {d_a}, "
        "the configured encoder and env's are 8 and 2")


@pytest.mark.parametrize("command, out", [
    ("eval", "eval"),
    ("gap", "gap"),
    ("landscape", "landscape"),
    ("finetune-online", "model-owm"),
], ids=["eval", "gap", "landscape", "finetune-online"])
def test_a_horizon_longer_than_the_trajectories_exits_2_before_writing(
        pipeline, capsys, tmp_path, command, out):
    # the tiny dataset's trajectories have T = 9 steps
    cfg, path = pipeline
    assert _run("finetune-adv", "--config", path) == 0
    cfg["eval"]["horizon_gap"] = 20
    for section in (cfg["gap"], cfg["landscape"], cfg["finetune"]["online"]):
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


_OUTPUT_KEYS = [
    ("gen-data", "dataset.path"), ("train", "model.path"),
    ("finetune-adv", "finetune.adversarial.out_path"),
    ("finetune-online", "finetune.online.out_path"), ("eval", "eval.out_path"),
    ("gap", "gap.out_path"), ("landscape", "landscape.out_path"),
]
# the output paths that, when set, a command writes besides its main one
_SIDE_OUTPUT_KEYS = [("finetune-adv", "finetune.adversarial.perturbed_path"),
                     ("finetune-online", "finetune.online.corrected_path")]


@pytest.mark.parametrize("command, key, names_a_file", [
    *(pytest.param(command, key, False, id=f"{command}-{key}")
      for command, key in _OUTPUT_KEYS),
    *(pytest.param(command, key, True, id=f"{command}-{key}-names-a-file")
      for command, key in _OUTPUT_KEYS + _SIDE_OUTPUT_KEYS),
])
def test_a_missing_output_path_exits_2_naming_its_key_before_writing(
        tmp_path, capsys, command, key, names_a_file):
    cfg = tiny_config(tmp_path)
    cfg["finetune"]["adversarial"]["dump_perturbed"] = True  # writes perturbed_path
    path = _write(tmp_path, cfg)
    if command != "gen-data":
        assert _run("gen-data", "--config", path) == 0
        assert _run("train", "--config", path) == 0
        assert _run("finetune-adv", "--config", path) == 0
    *parents, last = key.split(".")
    section = cfg
    for part in parents:
        section = section[part]
    if names_a_file:
        section[last] = str(tmp_path / "a-file")
        (tmp_path / "a-file").write_text("")
    else:
        del section[last]
    path = _write(tmp_path, cfg)
    before = sorted(tmp_path.rglob("*"))
    workers = ["--workers", "1"] if command == "eval" else []
    assert _run(command, "--config", path, *workers) == 2
    expect = (f"{tmp_path / 'a-file'} exists and is not a directory" if names_a_file
              else "not set")
    assert f"config error: {key}: {expect}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, key, subdir", [
    ("gap", "gap.out_path", "baseline"),
    ("landscape", "landscape.out_path", "task_0"),
])
def test_an_output_subdirectory_that_names_a_file_exits_2_before_planning(
        pipeline, capsys, command, key, subdir):
    # gap writes each model's report to <out_path>/<model>, landscape each
    # task's to <out_path>/task_<t>
    cfg, path = pipeline
    assert _run("finetune-adv", "--config", path) == 0
    out = cfg[command]["out_path"]
    os.makedirs(out)
    a_file = os.path.join(out, subdir)
    open(a_file, "w").close()
    before = sorted(os.listdir(out))
    assert _run(command, "--config", path) == 2
    assert (f"config error: {key}: {a_file} exists and is not a directory"
            in capsys.readouterr().err)
    assert sorted(os.listdir(out)) == before


@pytest.mark.parametrize("command, key, subdir", [
    ("gen-data", "dataset.path", ""),
    ("train", "model.path", ""),
    ("finetune-adv", "finetune.adversarial.out_path", ""),
    ("finetune-adv", "finetune.adversarial.perturbed_path", ""),
    ("finetune-online", "finetune.online.out_path", ""),
    ("finetune-online", "finetune.online.corrected_path", ""),
    ("eval", "eval.out_path", ""),
    ("gap", "gap.out_path", "baseline"),
    ("landscape", "landscape.out_path", ""),
    ("landscape", "landscape.out_path", "task_0"),
])
def test_a_directory_where_a_command_writes_a_file_exits_2_before_any_work(
        tmp_path, capsys, command, key, subdir):
    # every file the command writes into <key>/<subdir>, made a directory in
    # turn: the command names the key and the path, and writes nothing
    cfg = tiny_config(tmp_path)
    adv = cfg["finetune"]["adversarial"]
    adv["dump_perturbed"], adv["perturbed_path"] = True, f"{tmp_path}/perturbed"
    path = _write(tmp_path, cfg)
    for setup in ("gen-data", "train", "finetune-adv"):
        assert _run(setup, "--config", path) == 0
    root = functools.reduce(dict.get, key.split("."), cfg)
    out = os.path.join(root, subdir)
    flags = {"gen-data": ["--force"], "eval": ["--workers", "1"]}.get(command, [])
    assert _run(command, "--config", path, *flags) == 0
    names = sorted(name for name in os.listdir(out)
                   if os.path.isfile(os.path.join(out, name)))
    assert names
    for name in names:
        shutil.rmtree(root)
        os.makedirs(os.path.join(out, name))
        before = sorted(tmp_path.rglob("*"))
        assert _run(command, "--config", path, *flags) == 2
        assert (f"config error: {key}: {os.path.join(out, name)} is a directory"
                in capsys.readouterr().err)
        assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("content", ["malformed", "directory", "list"])
def test_a_config_file_that_cannot_be_read_exits_2(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    if content == "directory":
        path.mkdir()
    else:
        path.write_text('{"seed": 11,' if content == "malformed" else "[11]")
    assert _run("gen-data", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert f"config error: config file {path}: " in err
    if content == "directory":
        assert f"config file {path}: config.json is a directory" in err


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


def _setting(key: str, value) -> list[str]:
    """The arguments that set config key `key`, or command flag `key` when
    it starts with "--", to `value`."""
    return [key, str(value)] if key.startswith("--") else ["--set", f"{key}={value}"]


@pytest.mark.parametrize("command, key, out", [
    ("train", "model.train.epochs", "model/weights.bin"),
    ("train", "model.train.batch_size", "model/weights.bin"),
    ("finetune-adv", "finetune.adversarial.epochs", "model-adv/weights.bin"),
    ("finetune-adv", "finetune.adversarial.batch_size", "model-adv/weights.bin"),
    ("finetune-online", "finetune.online.batch_size", "model-owm/weights.bin"),
    ("eval", "eval.n_tasks", "eval"),
    ("eval", "planners.cem_small.n_pop", "eval"),
    ("landscape", "landscape.n_tasks", "landscape"),
    ("landscape", "landscape.resolution", "landscape"),
    ("gen-data", "dataset.n_traj", "data-2"),
    ("gap", "gap.n", "gap"),
    ("finetune-online", "finetune.online.horizon", "model-owm/weights.bin"),
    ("finetune-online", "finetune.online.plan_iterations", "model-owm/weights.bin"),
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
    ("eval", "--workers", "eval"),
], ids=["train-epochs", "train-batch", "adv-epochs", "adv-batch", "online-batch",
        "eval-tasks", "cem-population", "landscape-tasks",
        "landscape-resolution", "gen-data-trajectories", "gap-windows",
        "online-horizon", "online-plan-iterations",
        "gbp-horizon", "gbp-iterations", "cem-horizon",
        "cem-iterations", "cem-elites", "mppi-horizon", "mppi-iterations",
        "mppi-samples", "mpc-steps", "mpc-k-exec", "mpc-plan-iters", "gap-horizon",
        "gap-plan-iterations", "landscape-horizon", "landscape-plan-iterations",
        "gen-data-frameskip", "eval-horizon-gap", "eval-workers"])
def test_a_loop_size_of_0_exits_2_before_writing(tmp_path, capsys, command, key, out):
    cfg = tiny_config(tmp_path)
    cfg["planners"]["mppi_small"] = {"kind": "mppi", "horizon": 4, "samples": 4}
    cfg["eval"]["planners"] = ["gbp_gd", "cem_small", "mppi_small"]
    path = _write(tmp_path, cfg)
    assert _run("gen-data", "--config", path) == 0
    if command not in ("gen-data", "train"):
        assert _run("train", "--config", path) == 0
    argv = [command, "--config", path, *_setting(key, 0)]
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
    ("gap", "gap.models", "{}", "gap.models names no checkpoints", "gap"),
], ids=["hidden-zero", "hidden-string", "odd-d-z", "online-iterations",
        "online-finetune-steps", "gap-no-models"])
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
    ("gap", "gap.plan.eta", 0, None, "gap"),
    ("landscape", "landscape.plan.eta", 0, None, "landscape"),
    ("finetune-online", "finetune.online.plan_eta", 0, None, "model-owm"),
    ("eval", "eval.mpc.eta", 0, None, "eval"),
    ("eval", "planners.gradcem_small.refine_eta", 0, None, "eval"),
    ("eval", "planners.mppi_small.temperature", 0, None, "eval"),
    ("train", "encoder.sigma", 0, None, "model"),
    ("eval", "planners.mppi_small.sigma", -0.5, None, "eval"),
    ("finetune-adv", "finetune.adversarial.lambda_a", -1,
     "finetune.adversarial.lambda_a: expected a number >= 0, got -1", "model-adv"),
    ("finetune-online", "finetune.online.mix_ratio", 1.5,
     "finetune.online: mix_ratio must lie in [0, 1]", "model-owm"),
    ("eval", "planners.cem_small.sigma0", 0, None, "eval"),
    ("eval", "planners.gradcem_small.sigma0", -1, None, "eval"),
    ("eval", "planners.cem_small.jitter", -1,
     "planners.cem_small.jitter: expected a number >= 0, got -1", "eval"),
    # the radii come from the first batch, so a given radius is an unknown key
    ("finetune-adv", "finetune.adversarial.eps_a", -1,
     "unknown config key: finetune.adversarial.eps_a\n", "model-adv"),
    ("finetune-adv", "finetune.adversarial.eps_z", -0.5,
     "unknown config key: finetune.adversarial.eps_z\n", "model-adv"),
    ("landscape", "landscape.c_min", 2,
     "landscape: c_min 2 is not below c_max 1.25", "landscape"),
    ("eval", "--workers", -3, "--workers: expected an integer >= 1, got -3", "eval"),
], ids=["train-lr", "adv-lr", "online-lr", "gap-eta",
        "landscape-eta", "online-plan-eta", "mpc-eta", "gradcem-refine-eta",
        "mppi-temperature", "encoder-sigma", "mppi-sigma", "adv-lambda-a",
        "online-mix-ratio", "cem-sigma0", "gradcem-sigma0", "cem-jitter", "adv-eps-a", "adv-eps-z",
        "landscape-c-range", "eval-workers"])
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
    if command != "train":
        assert _run("train", "--config", path) == 0
    if command == "landscape":
        assert _run("finetune-adv", "--config", path) == 0
    assert _run(command, "--config", path, *_setting(key, value)) == 2
    # a field's rule names its key; a rule between fields names the section
    expect = message or f"{key}: expected a number > 0, got {value}"
    assert f"config error: {expect}" in capsys.readouterr().err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("override, message", [
    ("planners.cem_small.k_elite=11",
     "planners.cem_small: need 1 <= k_elite <= n_pop"),
    ("planners.gradcem_small.refine_steps=-1",
     "planners.gradcem_small.refine_steps: expected an integer >= 0, got -1"),
    ("eval.mpc.k_exec=9",
     "eval.mpc.k_exec 9 is longer than the horizon of planner(s) gbp_gd, "
     "gradcem_small"),
    ("planners.gbp_gd.init=gaussian",
     "config error: unknown config key: planners.gbp_gd.init\n"),
    ("planners.gbp_gd.initnet_path=initnet",
     "config error: unknown config key: planners.gbp_gd.initnet_path\n"),
], ids=["cem-elites-above-population", "negative-refine-steps",
        "k-exec-above-horizon", "gbp-init", "gbp-initnet-path"])
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


_ELITES = "planners.cem_small: need 1 <= k_elite <= n_pop"
_LOSS = ("planners.gbp_gd.loss: expected one of ['early-heavy', 'final', "
         "'late-heavy'], got 'foo'")
# the attack is FGSM with first-batch radii; these settings of other
# attacks are unknown keys
_REMOVED = {"attack": "pgd", "pgd_steps": 3, "radius_mode": "adaptive",
            "per_dimension_std": "true", "alpha_a": 0.1, "alpha_z": 0.1}


@pytest.mark.parametrize("command, override, message, out", [
    ("train", "planners.cem_small.k_elite=50", _ELITES, "model"),
    ("train", "finetune.online.mix_ratio=2",
     "finetune.online: mix_ratio must lie in [0, 1]", "model"),
    ("eval", "planners.cem_small.k_elite=50", _ELITES, "eval"),
    ("gen-data", "landscape.c_min=2", "landscape: c_min 2 is not below c_max 1.25",
     "data"),
    ("train", "planners.gbp_gd.loss=foo", _LOSS, "model"),
    ("eval", "planners.gbp_gd.loss=foo", _LOSS, "eval"),
    ("gen-data", "finetune.adversarial.eps_a=0.1",
     "unknown config key: finetune.adversarial.eps_a\n", "data"),
    ("train", 'initnet={"horizon": 25}', "unknown config key: initnet\n", "model"),
    ("finetune-adv", "finetune.adversarial.eps_a=0.1",
     "unknown config key: finetune.adversarial.eps_a\n", "model-adv"),
    ("finetune-adv", "finetune.adversarial.eps_z=0.1",
     "unknown config key: finetune.adversarial.eps_z\n", "model-adv"),
    *(("finetune-adv", f"finetune.adversarial.{key}={value}",
       f"unknown config key: finetune.adversarial.{key}\n", "model-adv")
      for key, value in _REMOVED.items()),
    # the model always has its skip connection, and GBP clamps to the env's
    # bound and returns its best iterate: these are no settings
    ("train", "model.residual=true", "unknown config key: model.residual\n", "model"),
    ("eval", "planners.gbp_gd.clamp=false",
     "unknown config key: planners.gbp_gd.clamp\n", "eval"),
    ("eval", "planners.gbp_gd.return_best=false",
     "unknown config key: planners.gbp_gd.return_best\n", "eval"),
], ids=["train-cem-elites", "train-mix-ratio", "eval-unselected-cem-elites",
        "gen-data-c-range", "train-goal-loss", "eval-goal-loss", "gen-data-eps-a",
        "train-initnet-section", "adv-eps-a-alone", "adv-eps-z-alone",
        *(f"adv-{key}" for key in _REMOVED), "train-model-residual", "eval-gbp-clamp",
        "eval-gbp-return-best"])
def test_every_rule_is_checked_at_load_whatever_the_command(tmp_path, capsys, command,
                                                            override, message, out):
    # the tiny config's eval.planners selects gbp_gd only
    path = _write(tmp_path, tiny_config(tmp_path))
    if command != "gen-data":
        assert _run("gen-data", "--config", path) == 0
    if command in ("eval", "finetune-adv"):
        assert _run("train", "--config", path) == 0
    workers = ["--workers", "1"] if command == "eval" else []
    assert _run(command, "--config", path, "--set", override, *workers) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("via", ["--set", "--config"])
@pytest.mark.parametrize("command, key", [
    ("train", "encoder.sigma"),
    ("finetune-adv", "finetune.adversarial.lambda_a"),
    ("eval", "planners.mppi_small.sigma"),
    ("eval", "eval.mpc.eta"),
    ("landscape", "landscape.c_max"),
], ids=["encoder-sigma", "adv-lambda-a", "mppi-sigma", "mpc-eta", "landscape-c-max"])
def test_a_nonfinite_number_exits_2_before_writing(tmp_path, capsys, command, key,
                                                   via, token):
    # JSON's NaN and Infinity tokens parse to floats, from a --set value and
    # from a config file alike; no number field takes them
    cfg = tiny_config(tmp_path)
    cfg["planners"]["mppi_small"] = {"kind": "mppi", "horizon": 4, "samples": 4}
    if via == "--config":
        *path, last = key.split(".")
        functools.reduce(dict.__getitem__, path, cfg)[last] = float(token)
    argv = [command, "--config", _write(tmp_path, cfg)]
    if via == "--set":
        argv += ["--set", f"{key}={token}"]
    before = sorted(tmp_path.rglob("*"))
    assert _run(*argv) == 2
    assert (f"config error: {key}: expected a finite number, got {float(token)!r}\n"
            in capsys.readouterr().err)
    assert sorted(tmp_path.rglob("*")) == before


def test_train_initnet_is_no_command_and_writes_nothing(tmp_path, capsys):
    path = _write(tmp_path, tiny_config(tmp_path))
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        _run("train-initnet", "--config", path)
    assert exc.value.code == 2
    assert "invalid choice: 'train-initnet'" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


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
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.warns(UserWarning, match="stable ranges")):
        code = _run("finetune-adv", "--config", path, "--set",
                    "finetune.adversarial.lambda_a=1e200", "--set",
                    "finetune.adversarial.lambda_z=1e200")
    assert code == 3


def test_a_weight_beyond_float32_exits_3_without_a_warning(pipeline, capsys):
    # a checkpoint weight that is finite in float64 but beyond float32's
    # range, met by the float32 training step (both radii zero, so no
    # attack runs before it); nothing is written and NumPy warns of nothing
    cfg, path = pipeline
    model, meta = worldmodel.load_model(cfg["model"]["path"])
    model.weights[0][0, 0] = 1e39
    worldmodel.save_model(cfg["model"]["path"], model, meta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run("finetune-adv", "--config", path, "--set",
                    "finetune.adversarial.lambda_a=0", "--set",
                    "finetune.adversarial.lambda_z=0")
    assert code == 3
    assert ("numeric failure: a weight does not fit in float32"
            in capsys.readouterr().err)
    assert not os.path.exists(cfg["finetune"]["adversarial"]["out_path"])


def test_a_gradient_beyond_adams_float32_moments_exits_3_without_a_warning(
        pipeline, capsys):
    # a dead first layer (every hidden pre-activation 0, so every tanh 0)
    # under output weights of 1e22: the loss is finite, and so is the first
    # layer's float32 gradient, but it is far beyond what float32 Adam
    # moments hold, which would overflow and silently zero its steps;
    # nothing is written and NumPy warns of nothing
    cfg, path = pipeline
    model, meta = worldmodel.load_model(cfg["model"]["path"])
    for w in [model.weights[0]] + model.weights[1:-2:2]:
        w[...] = 0.0
    model.weights[-2][...] = 1e22
    worldmodel.save_model(cfg["model"]["path"], model, meta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run("finetune-adv", "--config", path, "--set",
                    "finetune.adversarial.lambda_a=0", "--set",
                    "finetune.adversarial.lambda_z=0")
    assert code == 3
    assert ("numeric failure: a gradient does not fit in Adam's float32 moments"
            in capsys.readouterr().err)
    assert not os.path.exists(cfg["finetune"]["adversarial"]["out_path"])


@pytest.mark.parametrize("command", ["eval", "gap", "landscape", "finetune-online"])
def test_a_checkpoint_beyond_float32_exits_3_at_load(pipeline, capsys, tmp_path,
                                                     command):
    # every model computes in float32, so `load_model` refuses the weight
    # before any plan or training step; nothing is written and NumPy warns
    # of nothing
    cfg, path = pipeline
    model, meta = worldmodel.load_model(cfg["model"]["path"])
    model.weights[0][0, 0] = 1e39
    worldmodel.save_model(cfg["model"]["path"], model, meta)
    before = sorted(tmp_path.rglob("*"))
    workers = ["--workers", "1"] if command == "eval" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(command, "--config", path, *workers) == 3
    assert ("numeric failure: a weight does not fit in float32"
            in capsys.readouterr().err)
    assert sorted(tmp_path.rglob("*")) == before


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
            "022881566fbd4ee0fa7a8fc20b18bef79315b292a8c72b7f8a86f32ca947dfe6",
        "wall-awm":
            "d929bc34b80a80f183215e4fda1d4173323f44d85e352a4384691edf834d8c59",
        "wall-owm":
            "6b68930b9c28b7a1506c8dfca078efb42cad612a9b69a8ac8ec0187601e785c6",
        "pointmass-baseline":
            "ca234ce5598f1df4ce8d28ce8e538f376ce7b2b8c61c2dbab7ced9c350bf0992",
        "longhorizon":
            "983f73032a9009746dba28230556f7dce71689e2d1abd00fb2ca8f589770553e",
    }


@pytest.mark.parametrize("name", list(PRESETS))
def test_the_preset_digest_covers_every_output_but_timing(tmp_path, capsys, name):
    cfg = get_preset(name)
    digests = []
    for out in ("a", "b"):
        assert preset_digest.main([str(tmp_path / out), name]) == 0
        digests.append(capsys.readouterr().out.splitlines())
    assert digests[0] == digests[1]
    files = dict(reversed(line.split("  ", 1)) for line in digests[0])
    assert all(re.fullmatch("[0-9a-f]{64}", sha) for sha in files.values())
    assert not [path for path in files if path.endswith("timing.json")]
    root = cfg["out_dir"]
    assert {f"{root}/{path}" for path in (
        "data/data.bin", "model/weights.bin", "model-adv/weights.bin",
        "model-owm/weights.bin", "data-corrected/data.bin",
        "eval-open-loop/report.json", "eval-mpc/report.json",
        "landscape/summary.json", *(f"gap/{model}/gap.json"
                                    for model in cfg["gap"]["models"]))} <= files.keys()
    cells = {(model, planner) for model in cfg["eval"]["models"]
             for planner in (*cfg["planners"], "gbp_late", "gbp_early")}
    for mode in ("open-loop", "mpc"):
        with open(tmp_path / "a" / root / f"eval-{mode}" / "report.json") as fh:
            report = json.load(fh)
        assert {(cell["model"], cell["planner"]) for cell in report["cells"]} == cells


# --- builders: every key a section sets reaches the object it configures ----


def _keys(*classes) -> set[str]:
    """The config keys of the fields of `classes`; a FLAT part's keys are
    those of its own class. Only `init_actions` and `return_best`, which
    callers pass in code, and `a_max`, which `build_planner` sets from the
    env, take no key."""
    keys = set()
    for cls in classes:
        for f in fields(cls):
            if not f.metadata.get("flat"):
                assert (config_key(f)
                        or f.name in ("init_actions", "return_best", "a_max")), f.name
                keys.add(config_key(f))
    return keys - {None}


def test_build_planner_carries_every_planner_key():
    spec = envs.wall2d_spec()
    sections = {
        "gbp": {"kind": "gbp", "horizon": 7, "iterations": 11,
                "optimizer": "adam", "eta": 0.07, "loss": "late-heavy"},
        "cem": {"kind": "cem", "horizon": 9, "n_pop": 40, "k_elite": 4,
                "iterations": 3, "sigma0": 0.7, "jitter": 1e-4},
        "gradcem": {"kind": "gradcem", "horizon": 8, "n_pop": 12,
                    "k_elite": 2, "iterations": 4, "sigma0": 0.6,
                    "jitter": 1e-5, "refine_steps": 5, "refine_eta": 0.05},
        "mppi": {"kind": "mppi", "horizon": 6, "samples": 16, "sigma": 0.2,
                 "temperature": 0.5, "iterations": 3},
    }
    expected = {"gbp": _keys(PlanConfig), "cem": _keys(CemConfig),
                "gradcem": _keys(CemConfig, RefineConfig), "mppi": _keys(MppiConfig)}
    for kind, section in sections.items():
        assert set(section) == expected[kind] | {"kind"}, kind
        validate_config({"planners": {"p": section}})
    built = {kind: cli.build_planner(kind, section, spec)
             for kind, section in sections.items()}

    plan = built["gbp"]
    assert type(plan) is PlanConfig
    assert (plan.horizon, plan.iterations, plan.optimizer, plan.eta) == \
        (7, 11, "adam", 0.07)
    assert (plan.loss, plan.init_actions) == ("late-heavy", None)
    assert (plan.return_best, plan.a_max) == (True, spec.a_max)

    assert built["cem"] == CemConfig(9, 40, 4, 3, 0.7, 1e-4)
    assert built["gradcem"] == CemConfig(8, 12, 2, 4, 0.6, 1e-5,
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
               "lambda_z": 0.3, "epochs": 2, "batch_size": 2, "lr": 5e-4,
               "dump_perturbed": True,
               "perturbed_path": str(tmp_path / "perturbed-x")}
    assert set(section) == _keys(cli.AdversarialSection, finetune.PerturbationConfig,
                                 cli.TrainSection)
    cfg["finetune"]["adversarial"] = section
    seen = _spy(monkeypatch, finetune, "adversarial_wm")
    assert _run("finetune-adv", "--config", _write(tmp_path, cfg)) == 0
    assert seen["args"][2] == finetune.PerturbationConfig(lambda_a=0.4, lambda_z=0.3)
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
    assert set(section) == _keys(cli.OnlineSection, finetune.OnlineConfig)
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
    assert set(mpc) == _keys(MpcConfig)
    cfg["eval"].update(mode="mpc", mpc=mpc)
    seen = _spy(monkeypatch, evalreport, "evaluate")
    assert _run("eval", "--config", _write(tmp_path, cfg), "--workers", "1") == 0
    assert seen["kwargs"]["mpc_cfg"] == MpcConfig(steps=3, k_exec=2, plan_iters=4,
                                                  eta=0.05, warm_start=True)

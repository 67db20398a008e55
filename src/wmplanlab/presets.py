"""Named experiment configurations with the reference default values."""

from __future__ import annotations


def _wall_base(out_dir: str) -> dict:
    return {
        "seed": 0,
        "out_dir": out_dir,
        "env": {"kind": "wall2d", "frameskip": 5},
        "encoder": {"kind": "random-fourier", "d_z": 64, "sigma": 4.0, "seed": 0},
        "dataset": {"path": f"{out_dir}/data", "n_traj": 1920, "traj_len": 50,
                    "policy": "goal-seeking-noisy"},
        "model": {"path": f"{out_dir}/model", "hidden": [128, 128],
                  "train": {"epochs": 50, "batch_size": 64, "lr": 1e-3}},
        "finetune": {
            "adversarial": {"out_path": f"{out_dir}/model-adv",
                            "lambda_a": 0.5, "lambda_z": 0.2, "epochs": 2,
                            "batch_size": 48, "lr": 1e-4,
                            "dump_perturbed": False,
                            "perturbed_path": f"{out_dir}/data-adversarial"},
            "online": {"out_path": f"{out_dir}/model-owm",
                       "corrected_path": f"{out_dir}/data-corrected",
                       "iterations": 40, "plan_iterations": 100,
                       "horizon": 25, "mix_ratio": 0.5, "lr": 1e-4,
                       "finetune_steps": 50, "batch_size": 64,
                       "plan_optimizer": "adam", "plan_eta": 0.3},
        },
        "planners": {
            "gbp_gd": {"kind": "gbp", "horizon": 25, "iterations": 300,
                       "optimizer": "sgd", "eta": 1.0, "loss": "final"},
            "gbp_adam": {"kind": "gbp", "horizon": 25, "iterations": 300,
                         "optimizer": "adam", "eta": 0.3, "loss": "final"},
            "cem": {"kind": "cem", "horizon": 25, "n_pop": 300, "k_elite": 30,
                    "iterations": 30, "sigma0": 1.0, "jitter": 1e-6},
            "mppi": {"kind": "mppi", "horizon": 25, "samples": 64,
                     "sigma": 0.5, "temperature": 1.0, "iterations": 1},
            "gradcem": {"kind": "gradcem", "horizon": 25, "n_pop": 50,
                        "k_elite": 10, "iterations": 30, "sigma0": 1.0,
                        "jitter": 1e-6, "refine_steps": 2, "refine_eta": 0.3},
        },
        "eval": {"out_path": f"{out_dir}/eval", "n_tasks": 100, "mode": "mpc",
                 "horizon_gap": 25,
                 "models": {"baseline": f"{out_dir}/model"},
                 "planners": ["gbp_adam"],
                 "mpc": {"steps": 10, "k_exec": None, "plan_iters": 100,
                         "eta": 0.2, "warm_start": False},
                 "require_cross_room": False},
        "gap": {"out_path": f"{out_dir}/gap", "n": 50, "horizon": 25,
                "models": {"baseline": f"{out_dir}/model"},
                "plan": {"iterations": 300, "optimizer": "sgd", "eta": 1.0}},
        "landscape": {"out_path": f"{out_dir}/landscape",
                      "baseline": f"{out_dir}/model",
                      "adversarial": f"{out_dir}/model-adv",
                      "n_tasks": 10, "resolution": 50,
                      "c_min": -1.25, "c_max": 1.25, "horizon": 25,
                      "plan": {"iterations": 300, "optimizer": "adam",
                               "eta": 1e-3}},
    }


def _preset_wall_baseline() -> dict:
    return _wall_base("runs/wall-baseline")


def _preset_wall_awm() -> dict:
    cfg = _wall_base("runs/wall-awm")
    cfg["eval"]["models"] = {"baseline": cfg["model"]["path"],
                             "adversarial": cfg["finetune"]["adversarial"]["out_path"]}
    cfg["gap"]["models"] = dict(cfg["eval"]["models"])
    cfg["eval"]["require_cross_room"] = True
    return cfg


def _preset_wall_owm() -> dict:
    cfg = _wall_base("runs/wall-owm")
    cfg["eval"]["models"] = {"baseline": cfg["model"]["path"],
                             "online": cfg["finetune"]["online"]["out_path"]}
    cfg["gap"]["models"] = dict(cfg["eval"]["models"])
    cfg["eval"]["require_cross_room"] = True
    return cfg


def _pointmass(out_dir: str) -> dict:
    cfg = _wall_base(out_dir)
    cfg["env"] = {"kind": "pointmass", "frameskip": 5}
    cfg["dataset"] = {"path": f"{out_dir}/data", "n_traj": 2000, "traj_len": 100,
                      "policy": "random"}
    return cfg


def _preset_pointmass_baseline() -> dict:
    return _pointmass("runs/pointmass-baseline")


def _preset_longhorizon() -> dict:
    cfg = _pointmass("runs/longhorizon")
    for planner in cfg["planners"].values():
        planner["horizon"] = 50
    cfg["eval"]["horizon_gap"] = 50
    cfg["eval"]["mpc"] = {"steps": 20, "k_exec": 1, "plan_iters": 100,
                          "eta": 0.2, "warm_start": False}
    cfg["finetune"]["online"]["horizon"] = 50
    cfg["gap"]["horizon"] = 50
    cfg["landscape"]["horizon"] = 50
    return cfg


PRESETS = {
    "wall-baseline": _preset_wall_baseline,
    "wall-awm": _preset_wall_awm,
    "wall-owm": _preset_wall_owm,
    "pointmass-baseline": _preset_pointmass_baseline,
    "longhorizon": _preset_longhorizon,
}


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name]()

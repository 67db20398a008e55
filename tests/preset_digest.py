"""Run every command of every preset at a small size and print one
`sha256  path` line per output file, `timing.json` aside.

    PYTHONPATH=src python tests/preset_digest.py [--size SIZE] OUT [PRESET ...]

SIZE is `tiny` (the default: 8-wide latents, one hidden layer of 8, every
horizon 4) or `shapes`: the preset's own model widths, batch sizes,
trajectory lengths and horizons (a 64-wide latent, hidden 128x128,
adversarial batches of 48 trajectories, so 2352 rows on the wall presets,
and H 25), with few trajectories, epochs, tasks and iterations. Only at
`shapes` do the matrix products see the shapes that the preset runs.

OUT must be empty or absent; the commands run with OUT as the working
directory, so each preset writes under `OUT/runs/<preset>/`. A refactor that
claims to change no output byte prints the same lines on the parent commit
(point PYTHONPATH at the parent's `src`) and on the change; compare them with
`diff`. Each `eval` runs in both modes over every planner of the preset plus
a late-heavy and an early-heavy `gbp` planner. The commands' own messages
go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys

from wmplanlab import cli, presets

H = 4  # every horizon at the tiny size; its trajectories have 9 steps
# the counts both sizes cut down
_FEW = {
    "model.train.epochs": 1, "finetune.online.iterations": 2, "finetune.online.plan_iterations": 3,
    "finetune.online.finetune_steps": 2, "eval.n_tasks": 2,
    "eval.mpc.steps": 2, "eval.mpc.plan_iters": 3, "gap.n": 2,
    "gap.plan.iterations": 3, "landscape.n_tasks": 1, "landscape.resolution": 3,
    "landscape.plan.iterations": 3,
}
SIZES = {
    "tiny": dict(_FEW, **{
        "encoder.d_z": 8, "dataset.n_traj": 8, "dataset.traj_len": 10,
        "model.hidden": [8], "model.train.batch_size": 16,
        "finetune.adversarial.batch_size": 16, "finetune.online.batch_size": 8,
        "finetune.online.horizon": H, "eval.horizon_gap": H, "gap.horizon": H,
        "landscape.horizon": H}),
    # one full adversarial batch of 48 trajectories and a short one of 2
    "shapes": dict(_FEW, **{"dataset.n_traj": 50}),
}
# the preset planners' sizes, by kind. CEM runs long enough for its Gaussian
# to narrow until near-equal costs decide the elites, so a change to how a
# population is scored or ranked moves the `cem` rows of `report.csv`; at
# 8/2/2 it moved no row
_PLANNERS = {
    "gbp": {"iterations": 3}, "cem": {"n_pop": 64, "k_elite": 8, "iterations": 20},
    "gradcem": {"n_pop": 4, "k_elite": 2, "iterations": 1, "refine_steps": 1},
    "mppi": {"samples": 4},
}


def _sets(name: str, size: str) -> list[str]:
    """The `--set` arguments that shrink preset `name` to `size` and add the
    extra planners."""
    cfg = presets.get_preset(name)
    sets = dict(SIZES[size])
    horizon = sets.get("eval.horizon_gap", cfg["eval"]["horizon_gap"])
    for pname, planner in cfg["planners"].items():
        if size == "tiny":
            sets[f"planners.{pname}.horizon"] = H
        for key, value in _PLANNERS[planner["kind"]].items():
            sets[f"planners.{pname}.{key}"] = value
    gbp = {"kind": "gbp", "horizon": horizon, "iterations": 3, "optimizer": "adam",
           "eta": 0.3}
    extra = {"gbp_late": dict(gbp, loss="late-heavy"),
             "gbp_early": dict(gbp, loss="early-heavy", optimizer="sgd", eta=0.5)}
    sets.update({f"planners.{pname}": planner for pname, planner in extra.items()})
    sets["eval.planners"] = [*cfg["planners"], *extra]
    return [f"{key}={json.dumps(value)}" for key, value in sets.items()]


def run_preset(name: str, size: str) -> None:
    """Every command of preset `name` at `size`, in the working directory."""
    out = presets.get_preset(name)["out_dir"]
    base = ["--preset", name,
            *(arg for s in _sets(name, size) for arg in ("--set", s))]
    runs = [[command] for command in ("gen-data", "train", "finetune-adv",
                                      "finetune-online")]
    runs += [["eval", "--workers", "1", "--set", f"eval.mode={mode}",
              "--set", f"eval.out_path={out}/eval-{mode}"]
             for mode in ("open-loop", "mpc")]
    runs += [["gap"], ["landscape"]]
    for argv in runs:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main([argv[0], *base, *argv[1:]])
        if code != 0:
            raise SystemExit(f"{name}: {' '.join(argv)} exited {code}")


def digest(root: str) -> list[str]:
    """`sha256  path` of every file under `root` but `timing.json`, by path."""
    lines = []
    for here, dirs, files in os.walk(root):
        dirs.sort()
        for fname in sorted(files):
            if fname != "timing.json":
                path = os.path.join(here, fname)
                with open(path, "rb") as fh:
                    sha = hashlib.sha256(fh.read()).hexdigest()
                lines.append(f"{sha}  {os.path.relpath(path, root)}")
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description="digest every preset output")
    parser.add_argument("--size", choices=list(SIZES), default="tiny")
    parser.add_argument("out")
    parser.add_argument("presets", nargs="*")
    args = parser.parse_args(argv)
    out, names = args.out, args.presets or list(presets.PRESETS)
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name in names:
            run_preset(name, args.size)
    finally:
        os.chdir(cwd)
    print("\n".join(digest(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

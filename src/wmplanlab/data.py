"""Trajectory and dataset containers plus their on-disk format.

A dataset directory holds `manifest.json` and one `traj_<i>.bin` per
trajectory; each binary file stores two WMT1 records, the state sequence
(observations, or latents for synthetic datasets) followed by the actions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensorio

SCHEMA_VERSION = 1


@dataclass
class Trajectory:
    """A sequence (x_1, a_1, x_2, ..., a_T, x_{T+1}) of states and actions.

    `obs` holds raw observations when the trajectory came from a simulator;
    `latents` holds encoded states. Either may be None, but whichever is
    present must be one longer than `actions`.
    """

    actions: np.ndarray
    obs: np.ndarray | None = None
    latents: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.actions)
        for name, arr in (("obs", self.obs), ("latents", self.latents)):
            if arr is not None and len(arr) != n + 1:
                raise ValueError(f"{name} has {len(arr)} rows, expected {n + 1}")

    def __len__(self) -> int:
        return len(self.actions)


@dataclass
class Dataset:
    trajectories: list[Trajectory] = field(default_factory=list)
    provenance: str = "expert"  # expert | corrected | adversarial

    def __len__(self) -> int:
        return len(self.trajectories)


def flatten_transitions(data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack every (z_t, a_t, z_{t+1}) triplet from the latent sequences."""
    zs, acts, zn = [], [], []
    for traj in data.trajectories:
        if traj.latents is None:
            raise ValueError("dataset has no latents; encode it first")
        zs.append(traj.latents[:-1])
        acts.append(traj.actions)
        zn.append(traj.latents[1:])
    return np.concatenate(zs), np.concatenate(acts), np.concatenate(zn)


def save_dataset(path, data: Dataset, *, env: dict | None = None,
                 seed: int | None = None, force: bool = False) -> None:
    """Write a dataset directory; refuses to overwrite unless `force`."""
    os.makedirs(path, exist_ok=True)
    existing = [f for f in os.listdir(path) if not f.startswith(".")]
    if existing and not force:
        raise FileExistsError(f"output directory {path} is not empty")
    content = "obs" if data.trajectories and data.trajectories[0].obs is not None else "latent"
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "provenance": data.provenance,
        "content": content,
        "count": len(data.trajectories),
        "seed": seed,
        "env": env,
    }
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for i, traj in enumerate(data.trajectories):
        states = traj.obs if content == "obs" else traj.latents
        tensorio.save_tensors(os.path.join(path, f"traj_{i}.bin"),
                              [states, traj.actions])


def load_dataset(path) -> tuple[Dataset, dict]:
    """The dataset in directory `path` and its manifest. A missing manifest
    or trajectory file, or a manifest of another schema version, is a
    ValueError, as is a damaged trajectory file (`tensorio`)."""
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise ValueError("no manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"manifest schema_version {version!r}, expected {SCHEMA_VERSION}")
    trajs = []
    for i in range(manifest["count"]):
        traj_path = os.path.join(path, f"traj_{i}.bin")
        if not os.path.isfile(traj_path):
            raise ValueError(f"traj_{i}.bin is missing "
                             f"(the manifest lists {manifest['count']})")
        states, actions = tensorio.load_tensors(traj_path, count=2)
        if manifest["content"] == "obs":
            trajs.append(Trajectory(actions=actions, obs=states))
        else:
            trajs.append(Trajectory(actions=actions, latents=states))
    return Dataset(trajs, provenance=manifest["provenance"]), manifest

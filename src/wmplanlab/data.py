"""Datasets as arrays of N trajectories of one length T, and their format.

A dataset holds actions (N, T, d_a) with observations (N, T+1, d_o),
latents (N, T+1, d_z) or both; T is `traj_len - 1` from `gen-data`, H for
the corrected set, 1 for the perturbed set. `sample_window` draws an
H-step `Window` of one trajectory, as views of those arrays. A dataset's
directory holds `manifest.json` and `data.bin`, exactly two WMT1 records:
the states, which the manifest's `content` names (`obs`, or `latent` for
the perturbed set), then the actions."""

from __future__ import annotations

import os
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensorio

SCHEMA_VERSION = 2


class HorizonTooLong(ValueError):
    """A window of more steps than the dataset's trajectories have."""


_Row = namedtuple("_Row", ["actions", "obs", "latents"])


@dataclass
class Dataset:
    actions: np.ndarray  # (N, T, d_a)
    obs: np.ndarray | None = None  # (N, T+1, d_o)
    latents: np.ndarray | None = None  # (N, T+1, d_z)
    provenance: str = "expert"  # expert | corrected | adversarial

    def __post_init__(self):
        if self.actions.ndim != 3:
            raise ValueError(f"actions have shape {self.actions.shape}, not (N, T, d_a)")
        n, t = self.actions.shape[:2]
        for name, arr in (("obs", self.obs), ("latents", self.latents)):
            if arr is not None and (arr.ndim != 3 or arr.shape[:2] != (n, t + 1)):
                raise ValueError(f"{name} have shape {arr.shape}, not ({n}, {t + 1}, d)")

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def trajectories(self) -> list[_Row]:
        """Per-row (actions, obs, latents) views, read by the benchmark only."""
        def rows(arr):
            return [None] * len(self) if arr is None else list(arr)
        return [_Row(*r) for r in zip(self.actions, rows(self.obs), rows(self.latents))]


class Window(NamedTuple):
    """H steps of one trajectory, as views of its dataset's arrays."""

    latents: np.ndarray | None  # (H+1, d_z)
    actions: np.ndarray  # (H, d_a)
    obs: np.ndarray | None  # (H+1, d_o)


def sample_window(data: Dataset, H: int, rng: np.random.Generator) -> Window:
    """A random window of H steps: `rng` draws a row i, then an offset off
    with off + H <= T. HorizonTooLong if T < H."""
    N, T = data.actions.shape[:2]
    if T < H:
        raise HorizonTooLong(f"horizon {H} is longer than the dataset's "
                             f"trajectories (T = {T} steps)")
    i, off = int(rng.integers(N)), int(rng.integers(T - H + 1))

    def states(arr):
        return None if arr is None else arr[i, off:off + H + 1]
    return Window(states(data.latents), data.actions[i, off:off + H], states(data.obs))


def flatten_transitions(data: Dataset, rows=slice(None)
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (z_t, a_t, z_{t+1}) triplet of the trajectories `rows` (an
    index array or a slice), row by row, with no copy of the rows first."""
    if data.latents is None:
        raise ValueError("dataset has no latents; encode it first")
    return (data.latents[rows, :-1].reshape(-1, data.latents.shape[2]),
            data.actions[rows].reshape(-1, data.actions.shape[2]),
            data.latents[rows, 1:].reshape(-1, data.latents.shape[2]))


def save_dataset(path, data: Dataset, *, env: dict | None = None,
                 seed: int | None = None) -> None:
    """Write a dataset directory, `data.bin` first, then `manifest.json`;
    no other file in it is touched. `content` is `obs` when the dataset has
    observations, which are then the states written, and `latent` if not."""
    os.makedirs(path, exist_ok=True)
    content = "obs" if data.obs is not None else "latent"
    states = data.obs if content == "obs" else data.latents
    tensorio.save_tensors(os.path.join(path, "data.bin"), [states, data.actions])
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "provenance": data.provenance,
        "content": content,
        "count": len(data),
        "seed": seed,
        "env": env,
    }
    tensorio.write_json(os.path.join(path, "manifest.json"), manifest, indent=2)


def load_dataset(path) -> tuple[Dataset, dict]:
    """The dataset in directory `path` and its manifest; a missing or damaged
    file, another schema version or `content`, a `data.bin` of other than
    two records, a non-finite entry, records that disagree with each other
    or with the manifest's count, or no trajectory or no step, are a
    ValueError. A `Dataset` in memory may hold no trajectory."""
    manifest = tensorio.read_json(os.path.join(path, "manifest.json"),
                                  ("schema_version", "content", "provenance", "count"))
    version = manifest["schema_version"]
    if version != SCHEMA_VERSION:
        raise ValueError(f"manifest schema_version {version!r}, expected "
                         f"{SCHEMA_VERSION}; rerun gen-data to regenerate it")
    content = manifest["content"]
    if content not in ("obs", "latent"):
        raise ValueError(f"manifest content {content!r}, expected 'obs' or 'latent'")
    records = tensorio.load_tensors(os.path.join(path, "data.bin"))
    if len(records) != 2:
        raise ValueError(f"data.bin: expected 2 tensor records, found {len(records)}")
    states, actions = records
    if not (np.isfinite(states).all() and np.isfinite(actions).all()):
        raise ValueError("data.bin holds a non-finite entry")
    kind = "obs" if content == "obs" else "latents"
    data = Dataset(actions, provenance=manifest["provenance"], **{kind: states})
    if len(data) != manifest["count"]:
        raise ValueError(f"data.bin holds {len(data)} trajectories, "
                         f"the manifest lists {manifest['count']}")
    n, t = actions.shape[:2]
    if n == 0 or t == 0:
        raise ValueError(f"data.bin holds {n} trajectories of {t} steps; "
                         "a dataset needs one trajectory of one step or more")
    return data, manifest

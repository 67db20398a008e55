"""Frozen observation embeddings.

The random-fourier kind lifts a low-dimensional observation into a fixed
nonlinear feature space, [sin(Wo + b); cos(Wo + b)] * sqrt(2 / d_f), and
stands in for a large pretrained visual encoder: frozen, redundant, and
nonlinear. The identity kind is kept for debugging and gradient tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import tensorio
from .data import Dataset
from .rng import generator

IDENTITY = "identity"
RANDOM_FOURIER = "random-fourier"


@dataclass(frozen=True)
class Encoder:
    kind: str
    d_o: int
    d_z: int
    W: np.ndarray | None = None  # (d_f, d_o), frozen
    b: np.ndarray | None = None  # (d_f,), frozen
    seed: int = 0


def make_identity(d_o: int) -> Encoder:
    return Encoder(IDENTITY, d_o, d_o)


def make_random_fourier(d_o: int, d_z: int = 64, sigma: float = 4.0,
                        seed: int = 0) -> Encoder:
    if d_z % 2 != 0:
        raise ValueError("random-fourier d_z must be even (sin and cos banks)")
    d_f = d_z // 2
    rng = generator(seed, "encoder")
    W = sigma * rng.standard_normal((d_f, d_o))
    b = rng.uniform(0.0, 2.0 * np.pi, size=d_f)
    W.flags.writeable = False
    b.flags.writeable = False
    return Encoder(RANDOM_FOURIER, d_o, d_z, W, b, seed)


def encode(enc: Encoder, o: np.ndarray) -> np.ndarray:
    """Embed one observation (d_o,) or a batch (N, d_o)."""
    o = np.asarray(o, dtype=np.float64)
    if o.shape[-1] != enc.d_o:
        raise ValueError(f"observation dim {o.shape[-1]} != encoder d_o {enc.d_o}")
    if enc.kind == IDENTITY:
        return o.copy()
    # the phase Wo + b summed elementwise, one column of W at a time and left
    # to right, instead of by a BLAS matmul: encoding a row is then bitwise
    # identical whether it arrives alone or inside a batch. Below d_o = 8 this
    # is the order of the broadcast sum (o[..., None, :] * W).sum(-1) + b, so
    # the bits are that expression's too
    W, d_f = enc.W, enc.d_z // 2
    phase = o[..., :1] * W[:, 0]
    for j in range(1, enc.d_o):
        phase += o[..., j:j + 1] * W[:, j]
    phase += enc.b
    z = np.empty(o.shape[:-1] + (enc.d_z,))
    np.sin(phase, out=z[..., :d_f])
    np.cos(phase, out=z[..., d_f:])
    z *= np.sqrt(2.0 / d_f)
    return z


def encode_dataset(enc: Encoder, data: Dataset) -> Dataset:
    """Return a copy of the dataset with latent sequences filled in, one
    trajectory at a time into a preallocated (N, T+1, d_z) array. One
    `encode` of every observation gives the same bits in about the same
    time, but holds its (N, T+1, d_z / 2) phase array beside the result:
    +11.6 MB peak at 300 x 50 and d_z 64, against +7.7 MB for the loop,
    which is the result alone."""
    latents = np.empty(data.obs.shape[:2] + (enc.d_z,))
    for i, obs in enumerate(data.obs):
        latents[i] = encode(enc, obs)
    return replace(data, latents=latents)


def encoder_hash(enc: Encoder) -> str:
    h = hashlib.sha256()
    h.update(f"{enc.kind}|{enc.d_o}|{enc.d_z}|{enc.seed}".encode())
    if enc.W is not None:
        h.update(tensorio.tensor_bytes(enc.W))
        h.update(tensorio.tensor_bytes(enc.b))
    return h.hexdigest()

"""The train-test gap's model error measured against the simulator, the
reference that `worldmodel.wm_error` on the dataset's latents must match
bit for bit: every state is stepped again from the window's start and every
observation encoded on its own."""

from __future__ import annotations

import numpy as np

from wmplanlab import envs
from wmplanlab.encoder import encode
from wmplanlab.worldmodel import predict


def simulated_wm_error(f, enc, spec, s1, actions) -> np.ndarray:
    """Teacher-forced model error, one squared distance per step: at each
    step the model is fed the latent of the *true* state, re-simulated from
    `s1` and re-encoded, so errors never compound in this metric."""
    actions = np.asarray(actions, dtype=np.float64)
    values = np.empty(len(actions))
    s = s1
    for t, a in enumerate(actions):
        z_t = encode(enc, envs.obs_of(spec, s))
        pred = predict(f, z_t, a)
        s = envs.step(spec, s, a)
        z_next = encode(enc, envs.obs_of(spec, s))
        d = pred - z_next
        values[t] = float(d @ d)
    return values

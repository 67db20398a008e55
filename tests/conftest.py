import numpy as np
import pytest


def central_fd(fn, x, h=1e-5):
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.ravel()
    for i in range(x.size):
        xp = x.ravel().copy()
        xm = x.ravel().copy()
        xp[i] += h
        xm[i] -= h
        flat[i] = (fn(xp.reshape(x.shape)) - fn(xm.reshape(x.shape))) / (2 * h)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def linear_model(B):
    """f(z, a) = z + a @ B as a one-layer residual world model: weight
    [[0], [B]], bias 0, no hidden layers."""
    from wmplanlab.worldmodel import WorldModel

    B = np.asarray(B, dtype=np.float64)
    d_a, d_z = B.shape
    W = np.vstack([np.zeros((d_z, d_z)), B])
    return WorldModel([W, np.zeros(d_z)], d_z, d_a, hidden=())


@pytest.fixture()
def nan_on_call(monkeypatch):
    """Call with k to make `worldmodel.supervised_step`, the step of the one
    training loop, return NaN as the loss of its k-th call."""
    from wmplanlab import worldmodel

    def arm(k):
        real = worldmodel.supervised_step
        calls = []

        def step(*args):
            calls.append(None)
            loss = real(*args)
            return float("nan") if len(calls) == k else loss

        monkeypatch.setattr(worldmodel, "supervised_step", step)

    return arm


@pytest.fixture(scope="session")
def wall_spec():
    from wmplanlab.envs import wall2d_spec

    return wall2d_spec()


@pytest.fixture(scope="session")
def pm_spec():
    from wmplanlab.envs import pointmass_spec

    return pointmass_spec()

import numpy as np
import pytest

from wmplanlab import envs
from wmplanlab.data import Dataset, HorizonTooLong
from wmplanlab.encoder import encode_dataset, make_identity
from wmplanlab.initnet import (init_actions, load_initnet, make_initnet,
                               save_initnet, train_initnet)
from wmplanlab.planners import PlanConfig, gbp
from wmplanlab.worldmodel import init_world_model, rollout_model


def _encoded(wall_spec, n, length, policy, seed):
    raw = envs.generate_dataset(wall_spec, n, length, policy, seed)
    return encode_dataset(make_identity(2), raw)


def test_zero_weight_net_outputs_zero_actions():
    g = make_initnet(4, 2, horizon=3, a_max=0.05, hidden=(8,), seed=0)
    g.weights = [np.zeros_like(w) for w in g.weights]
    out = init_actions(g, np.ones(4), np.ones(4))
    assert out.shape == (3, 2)
    assert np.all(out == 0.0)


def test_init_actions_deterministic_and_bounded():
    g = make_initnet(4, 2, horizon=5, a_max=0.05, seed=1)
    z1, zg = np.ones(4), -np.ones(4)
    a1 = init_actions(g, z1, zg)
    a2 = init_actions(g, z1, zg)
    assert np.array_equal(a1, a2)
    assert np.all(np.abs(a1) <= 0.05)  # final tanh scaled by a_max
    with pytest.raises(ValueError):
        init_actions(g, np.ones(3), zg)


def test_memorizes_single_window(wall_spec):
    # one trajectory, exactly one (z1, z4) window: a one-point fit
    data = _encoded(wall_spec, 1, 4, "random", seed=0)
    res = train_initnet(data, H=3, iterations=3000, lr=0.2, seed=0,
                        a_max=wall_spec.a_max)
    assert res.losses[-1] < 1e-6


def test_h1_reduces_to_inverse_dynamics(wall_spec):
    data = _encoded(wall_spec, 4, 6, "random", seed=2)
    res = train_initnet(data, H=1, iterations=10, lr=0.05, seed=0)
    out = init_actions(res.net, data.latents[0, 0], data.latents[0, 1])
    assert out.shape == (1, 2)


def test_beats_mean_prediction_on_held_out(wall_spec):
    # frozen measurement: MSE/var = 0.86 for this config and seed
    data = _encoded(wall_spec, 420, 30, "goal-seeking-noisy", seed=1)
    train = Dataset(data.actions[:400], latents=data.latents[:400])
    res = train_initnet(train, H=8, iterations=4000, lr=0.3, seed=0)
    errs, tgts = [], []
    for latents, actions in zip(data.latents[400:], data.actions[400:]):
        for off in (0, 10, 20):  # every window fits in T = 29 steps
            pred = init_actions(res.net, latents[off], latents[off + 8])
            target = actions[off:off + 8]
            errs.append(np.mean((pred - target) ** 2))
            tgts.append(target)
    variance = np.concatenate(tgts).ravel().var()
    assert np.mean(errs) < 0.95 * variance


def test_insufficient_trajectory_length_raises(wall_spec):
    data = _encoded(wall_spec, 2, 4, "random", seed=3)
    with pytest.raises(HorizonTooLong, match=r"horizon 10 .* \(T = 3 steps\)"):
        train_initnet(data, H=10, iterations=5, lr=0.1, seed=0)


def test_gbp_initnet_hook_initial_loss_matches(wall_spec):
    # under init="initnet", gbp's first trace entry is the goal loss at the
    # network's proposal
    data = _encoded(wall_spec, 5, 8, "random", seed=4)
    res = train_initnet(data, H=4, iterations=20, lr=0.05, seed=1)
    f = init_world_model(2, 2, hidden=(8,), seed=2)
    z1 = data.latents[0, 0]
    zg = data.latents[0, 4]
    proposal = init_actions(res.net, z1, zg)
    cfg = PlanConfig(horizon=4, iterations=3, optimizer="sgd", eta=0.1,
                     init="initnet", init_actions=res.net, a_max=wall_spec.a_max)
    pr = gbp(f, z1, zg, cfg, seed=0)
    zs = rollout_model(f, z1, proposal)
    expected = float(np.sum((zs[-1] - zg) ** 2))
    assert pr.loss_trace[0] == pytest.approx(expected, rel=1e-12)


def test_checkpoint_roundtrip(tmp_path):
    g = make_initnet(6, 2, horizon=4, a_max=0.1, hidden=(8, 8), seed=5)
    save_initnet(tmp_path / "g", g, meta={"k": 1})
    back, meta = load_initnet(tmp_path / "g")
    assert meta == {"k": 1}
    assert back.horizon == 4 and back.a_max == 0.1
    z1, zg = np.ones(6), np.zeros(6)
    assert np.array_equal(init_actions(back, z1, zg), init_actions(g, z1, zg))

from dataclasses import replace

import numpy as np
import pytest

import reference_rollout as ref
from reference_training import trajectory_teacher_forcing
from wmplanlab import diffcore as dc
from wmplanlab import envs, finetune
from wmplanlab.data import Dataset, flatten_transitions
from wmplanlab.encoder import encode, encode_dataset, make_identity
from wmplanlab.finetune import (OnlineConfig, PerturbationConfig, _attack_deltas,
                                adversarial_wm, attack_perturb, compute_radii,
                                online_wm)
from wmplanlab.rng import generator
from wmplanlab.worldmodel import (init_world_model, predict,
                                  train_teacher_forcing)


def _encoded_wall_dataset(wall_spec, n=12, length=10, seed=0):
    raw = envs.generate_dataset(wall_spec, n, length, "goal-seeking-noisy", seed)
    return encode_dataset(make_identity(2), raw)


def _latent_batch(*stds, T=4):
    # alternating +/- std has population std exactly std
    actions = [np.tile([[s, -s], [-s, s]], (T // 2, 1)) for s in stds]
    latents = [np.tile([[s, -s], [-s, s]], ((T + 2) // 2, 1))[:T + 1] for s in stds]
    return np.array(actions), np.array(latents)


def test_perturbation_config_validation():
    with pytest.raises(ValueError):
        PerturbationConfig(lambda_a=-0.1)
    with pytest.raises(ValueError):
        PerturbationConfig(attack="bim")
    with pytest.warns(UserWarning, match="stable") as record:
        PerturbationConfig(lambda_z=0.9)
    assert record[0].filename == __file__  # the warning names the caller


def test_compute_radii_hand_example():
    # per-trajectory stds (0.2, 0.4), lambda=0.5 -> 0.5 * 0.3 = 0.15
    eps_a, eps_z = compute_radii(*_latent_batch(0.2, 0.4), 0.5, 0.5)
    assert eps_a == pytest.approx(0.15)
    assert eps_z == pytest.approx(0.15)


def test_compute_radii_zero_cases():
    with pytest.warns(UserWarning, match="zero-variance"):
        eps_a, _ = compute_radii(np.ones((1, 3, 2)), np.ones((1, 4, 2)), 0.5, 0.5)
    assert eps_a == 0.0
    assert compute_radii(*_latent_batch(0.2), 0.0, 0.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        compute_radii(np.ones((0, 3, 2)), np.ones((0, 4, 2)), 0.5, 0.5)


def test_compute_radii_per_dimension_flag():
    batch = np.array([[[1.0, -1.0]]]), np.array([[[0.0, 0.0], [2.0, 0.0]]])
    scalar = compute_radii(*batch, 1.0, 1.0, per_dimension=False)
    # over all entries: std([1,-1]) = 1; std([0,0,2,0]) = sqrt(0.75)
    assert scalar == pytest.approx((1.0, np.sqrt(0.75)))
    with pytest.warns(UserWarning, match="zero-variance"):
        per_dim = compute_radii(*batch, 1.0, 1.0, per_dimension=True)
    # per dimension then averaged: actions (0+0)/2, latents (1+0)/2
    assert per_dim == pytest.approx((0.0, 0.5))


@pytest.mark.parametrize("per_dimension", [False, True])
def test_compute_radii_equals_the_per_trajectory_loop(per_dimension):
    # the batched standard deviations against one np.std per trajectory,
    # bit for bit, over random batch shapes and scales
    for i in range(200):
        rng = generator(i, "radii")
        B, T, d = (int(x) for x in rng.integers(2, 40, size=3))
        actions = rng.standard_normal((B, T, d)) * 10.0 ** rng.uniform(-6, 3)
        latents = rng.standard_normal((B, T + 1, 2 * d)) + rng.uniform(-5, 5)
        loop = [np.mean([float(np.mean(np.std(x, axis=0))) if per_dimension
                         else float(np.std(x)) for x in arr])
                for arr in (actions, latents)]
        got = compute_radii(actions, latents, 0.5, 0.2, per_dimension)
        assert got == (0.5 * float(loop[0]), 0.2 * float(loop[1]))


def test_attack_zero_radius_gives_zero():
    f = init_world_model(4, 2, seed=0)
    pcfg = PerturbationConfig(eps_a=0.0, eps_z=0.0)
    da, dz = attack_perturb(f, np.zeros(4), np.zeros(2), np.ones(4), pcfg, seed=1)
    assert np.all(da == 0.0) and np.all(dz == 0.0)


def test_attack_requires_radii():
    f = init_world_model(4, 2, seed=0)
    with pytest.raises(ValueError, match="radii"):
        attack_perturb(f, np.zeros(4), np.zeros(2), np.ones(4),
                       PerturbationConfig(), seed=0)


def test_attack_pgd_zero_init_saturates_boundary():
    # default step 1.25*eps from zero init clips to the boundary exactly
    f = init_world_model(4, 2, seed=1)
    rng = generator(1, "sat")
    pcfg = PerturbationConfig(eps_a=0.02, eps_z=0.05, attack="pgd", pgd_steps=1)
    da, dz = attack_perturb(f, rng.standard_normal(4), rng.standard_normal(2),
                            rng.standard_normal(4), pcfg, seed=2)
    assert np.all(np.isin(np.abs(da), [0.0, 0.02]))
    assert np.all(np.isin(np.abs(dz), [0.0, 0.05]))


def test_attack_ball_invariant_random_calls():
    for i in range(200):
        rng = generator(i, "ball")
        f = init_world_model(6, 2, hidden=(8,), seed=i)
        eps_a = float(rng.uniform(0, 0.1))
        eps_z = float(rng.uniform(0, 0.2))
        attack = "fgsm" if i % 2 == 0 else "pgd"
        pcfg = PerturbationConfig(eps_a=eps_a, eps_z=eps_z, attack=attack,
                                  pgd_steps=1 + i % 3)
        da, dz = attack_perturb(f, rng.standard_normal(6), rng.standard_normal(2),
                                rng.standard_normal(6), pcfg, seed=i)
        assert np.abs(da).max() <= eps_a  # exact, clip guarantees
        assert np.abs(dz).max() <= eps_z


def test_pgd_one_step_alpha_eps_is_fgsm_sign():
    # classical FGSM: delta = eps * sign(grad at the clean input)
    f = init_world_model(5, 2, hidden=(8,), seed=3)
    rng = generator(3, "fgsm")
    z, a, zn = rng.standard_normal(5), rng.standard_normal(2), rng.standard_normal(5)
    eps_a, eps_z = 0.03, 0.07
    pcfg = PerturbationConfig(eps_a=eps_a, eps_z=eps_z, alpha_a=eps_a,
                              alpha_z=eps_z, attack="pgd", pgd_steps=1)
    da, dz = attack_perturb(f, z, a, zn, pcfg, seed=4)
    tape = dc.Tape()
    a_node, z_node = tape.leaf(a), tape.leaf(z)
    pred = f.forward_nodes(z_node, a_node)
    loss = ref.sq_dist([pred], [zn], [1.0])
    ga, gz = dc.grad(loss, [a_node, z_node])
    assert np.array_equal(da, eps_a * np.sign(ga))
    assert np.array_equal(dz, eps_z * np.sign(gz))


def test_fgsm_takes_the_gradient_at_its_random_start():
    # the sign step uses the gradient at (z + dz0, a + da0); with these wide
    # radii its signs differ from those at (z, a), (z + dz0, a) and (z, a + da0)
    f = init_world_model(5, 2, hidden=(8,), seed=5)
    rng = generator(5, "fgsm-start")
    z, a, zn = rng.standard_normal(5), rng.standard_normal(2), rng.standard_normal(5)
    pcfg = PerturbationConfig(eps_a=2.0, eps_z=2.0, attack="fgsm")
    da, dz = attack_perturb(f, z, a, zn, pcfg, seed=11)
    start = generator(11, "attack-init")
    da0 = start.uniform(-2.0, 2.0, size=(1, 2))[0]
    dz0 = start.uniform(-2.0, 2.0, size=(1, 5))[0]

    def signs(z_in, a_in):
        tape = dc.Tape()
        a_node, z_node = tape.leaf(a_in), tape.leaf(z_in)
        pred = f.forward_nodes(z_node, a_node)
        grads = dc.grad(ref.sq_dist([pred], [zn], [1.0]), [a_node, z_node])
        return [np.sign(g) for g in grads]

    sa, sz = signs(z + dz0, a + da0)
    for z_in, a_in in ((z, a), (z + dz0, a), (z, a + da0)):
        assert not np.array_equal(np.concatenate([sa, sz]),
                                  np.concatenate(signs(z_in, a_in)))
    assert np.array_equal(da, np.clip(da0 + 2.5 * sa, -2.0, 2.0))
    assert np.array_equal(dz, np.clip(dz0 + 2.5 * sz, -2.0, 2.0))


def test_attack_ascends_loss():
    # measured 100% ascent over 200 random transitions; spec floor is 90%
    wins = 0
    for i in range(200):
        rng = generator(i, "ascent")
        f = init_world_model(8, 2, hidden=(16, 16), seed=i)
        z = rng.standard_normal(8) * 0.5
        a = rng.standard_normal(2) * 0.1
        zn = rng.standard_normal(8) * 0.5
        pcfg = PerturbationConfig(eps_a=0.02, eps_z=0.05)
        da, dz = attack_perturb(f, z, a, zn, pcfg, seed=i)
        clean = np.sum((predict(f, z, a) - zn) ** 2)
        pert = np.sum((predict(f, z + dz, a + da) - zn) ** 2)
        wins += pert >= clean
    assert wins / 200 >= 0.90


def test_adversarial_zero_lambda_reduces_to_teacher_forcing(wall_spec):
    # 12 trajectories in batches of 4: three Adam steps per epoch
    data = _encoded_wall_dataset(wall_spec)
    f = init_world_model(2, 2, hidden=(8,), seed=5)
    pcfg = PerturbationConfig(lambda_a=0.0, lambda_z=0.0)
    adv = adversarial_wm(f, data, pcfg, epochs=2, batch_size=4, lr=1e-3, seed=9)
    model, losses = trajectory_teacher_forcing(f, data, epochs=2, batch_size=4,
                                               lr=1e-3, seed=9)
    for w1, w2 in zip(adv.model.weights, model.weights):
        assert np.array_equal(w1, w2)
    assert np.array_equal(adv.batch_losses, losses)
    assert np.array_equal(adv.epoch_losses, [np.mean(losses[:3]), np.mean(losses[3:])])


@pytest.mark.parametrize("attack", ["fgsm", "pgd"])
def test_adversarial_attacks_each_batch_with_the_current_weights(wall_spec, attack):
    # the hand loop attacks every batch with the weights of the steps before
    # it, under adaptive radii from that batch
    data = _encoded_wall_dataset(wall_spec)
    f = init_world_model(2, 2, hidden=(8,), seed=5)
    pcfg = PerturbationConfig(lambda_a=0.5, lambda_z=0.2, attack=attack,
                              pgd_steps=2, radius_mode="adaptive")

    def perturb(model, step, batch, Z, A, ZN):
        eps_a, eps_z = compute_radii(batch.actions, batch.latents,
                                     pcfg.lambda_a, pcfg.lambda_z)
        da, dz = _attack_deltas(model, Z, A, ZN,
                                replace(pcfg, eps_a=eps_a, eps_z=eps_z),
                                generator(9, "attack", step))
        return Z + dz, A + da

    adv = adversarial_wm(f, data, pcfg, epochs=2, batch_size=4, lr=1e-3, seed=9)
    model, losses = trajectory_teacher_forcing(f, data, epochs=2, batch_size=4,
                                               lr=1e-3, seed=9, perturb=perturb)
    for w1, w2 in zip(adv.model.weights, model.weights):
        assert np.array_equal(w1, w2)
    assert np.array_equal(adv.batch_losses, losses)


def _batch_order_transitions(data, batch_size, seed):
    # transitions in the order adversarial_wm visits them (one epoch)
    perm = generator(seed, "shuffle", 0).permutation(len(data))
    return flatten_transitions(Dataset(data.actions[perm], latents=data.latents[perm]))


def test_adversarial_targets_stay_clean(wall_spec):
    data = _encoded_wall_dataset(wall_spec, n=6, length=6)
    f = init_world_model(2, 2, hidden=(8,), seed=6)
    pcfg = PerturbationConfig(lambda_a=0.5, lambda_z=0.2)
    res = adversarial_wm(f, data, pcfg, epochs=1, batch_size=6, lr=1e-3,
                         seed=2, keep_perturbed=True)
    Z, A, ZN = _batch_order_transitions(data, 6, seed=2)
    assert res.perturbed.actions.shape == (len(Z), 1, 2)  # one-step trajectories
    assert np.array_equal(res.perturbed.latents[:, 1], ZN)  # clean targets
    assert res.perturbed.provenance == "adversarial"


def test_adversarial_perturbs_inputs_within_radii(wall_spec):
    data = _encoded_wall_dataset(wall_spec, n=6, length=6)
    f = init_world_model(2, 2, hidden=(8,), seed=6)
    pcfg = PerturbationConfig(lambda_a=0.5, lambda_z=0.2)
    res = adversarial_wm(f, data, pcfg, epochs=1, batch_size=6, lr=1e-3,
                         seed=2, keep_perturbed=True)
    perm = generator(2, "shuffle", 0).permutation(6)
    eps_a, eps_z = compute_radii(data.actions[perm], data.latents[perm], 0.5, 0.2)
    Z, A, ZN = _batch_order_transitions(data, 6, seed=2)
    Zp, Ap = res.perturbed.latents[:, 0], res.perturbed.actions[:, 0]
    assert np.abs(Zp - Z).max() <= eps_z + 1e-15
    assert np.abs(Ap - A).max() <= eps_a + 1e-15
    assert not np.array_equal(Zp, Z)


def test_adversarial_fixed_vs_adaptive_radius_modes(wall_spec):
    data = _encoded_wall_dataset(wall_spec)
    f = init_world_model(2, 2, hidden=(8,), seed=7)
    for mode in ("fixed", "adaptive"):
        pcfg = PerturbationConfig(lambda_a=0.3, lambda_z=0.1, radius_mode=mode)
        res = adversarial_wm(f, data, pcfg, epochs=1, batch_size=4, lr=1e-3, seed=3)
        assert len(res.batch_losses) == 3


def test_online_corrected_trajectories_resimulate(wall_spec):
    data = _encoded_wall_dataset(wall_spec, n=8, length=12)
    enc = make_identity(2)
    f = init_world_model(2, 2, hidden=(8,), seed=8)
    cfg = OnlineConfig(iterations=3, plan_iterations=5, horizon=6,
                       finetune_steps=2, batch_size=8)
    res = online_wm(f, wall_spec, enc, data, cfg, seed=4)
    corr = res.corrected
    assert corr.actions.shape == (3, 6, 2)
    for actions, obs, latents in zip(corr.actions, corr.obs, corr.latents):
        s1 = envs.state_of_obs(wall_spec, obs[0])
        states = envs.rollout_env(wall_spec, s1, actions)
        for t, s in enumerate(states):
            o = envs.obs_of(wall_spec, s)
            assert np.array_equal(o, obs[t + 1])
            assert np.array_equal(encode(enc, o), latents[t + 1])
    assert res.corrected.provenance == "corrected"


def test_online_plans_with_the_weights_of_every_earlier_step(wall_spec,
                                                             monkeypatch):
    # the second plan sees the model a one-iteration run ends with
    data = _encoded_wall_dataset(wall_spec, n=6, length=10)
    f = init_world_model(2, 2, hidden=(8,), seed=3)
    cfg = OnlineConfig(iterations=1, plan_iterations=3, horizon=5,
                       finetune_steps=2, batch_size=4)
    first = online_wm(f, wall_spec, make_identity(2), data, cfg, seed=5)
    planned_with = []
    real_gbp = finetune.gbp

    def spy(model, *args):
        planned_with.append([w.copy() for w in model.weights])
        return real_gbp(model, *args)

    monkeypatch.setattr(finetune, "gbp", spy)
    online_wm(f, wall_spec, make_identity(2), data, replace(cfg, iterations=2), seed=5)
    assert len(planned_with) == 2
    for seen, expect in zip(planned_with, (f, first.model)):
        assert all(np.array_equal(w1, w2) for w1, w2 in zip(seen, expect.weights))


def test_online_expert_actions_reproduce_expert_trajectory(wall_spec):
    # the correction of an expert action sequence is the expert trajectory
    data = _encoded_wall_dataset(wall_spec, n=2, length=8)
    obs = data.obs[0]
    states = envs.rollout_env(wall_spec, envs.state_of_obs(wall_spec, obs[0]),
                              data.actions[0])
    for t, s in enumerate(states):
        assert np.array_equal(envs.obs_of(wall_spec, s), obs[t + 1])


def test_online_zero_iterations_is_identity(wall_spec):
    data = _encoded_wall_dataset(wall_spec)
    f = init_world_model(2, 2, hidden=(8,), seed=9)
    cfg = OnlineConfig(iterations=0, mix_ratio=0.0)
    with pytest.raises(ValueError):
        OnlineConfig(mix_ratio=1.5)
    res = online_wm(f, wall_spec, enc=make_identity(2), data=data, cfg=cfg, seed=1)
    for w1, w2 in zip(res.model.weights, f.weights):
        assert np.array_equal(w1, w2)
    assert len(res.corrected) == 0


def test_online_mix_ratio_zero_trains_on_corrected_only(wall_spec):
    # the literal algorithm: batches drawn from the corrected pool alone
    data = _encoded_wall_dataset(wall_spec, n=6, length=10)
    f = init_world_model(2, 2, hidden=(8,), seed=2)
    cfg = OnlineConfig(iterations=2, plan_iterations=3, horizon=5,
                       finetune_steps=2, batch_size=4, mix_ratio=0.0)
    res = online_wm(f, wall_spec, make_identity(2), data, cfg, seed=6)
    changed = any(not np.array_equal(w1, w2)
                  for w1, w2 in zip(res.model.weights, f.weights))
    assert changed and len(res.batch_losses) == 4


TRAINERS = {
    "training": lambda f, data, spec: train_teacher_forcing(
        f, data, epochs=2, batch_size=16, lr=1e-3, seed=0),
    "adversarial finetuning": lambda f, data, spec: adversarial_wm(
        f, data, PerturbationConfig(), epochs=2, batch_size=4, lr=1e-3, seed=1),
    "online finetuning": lambda f, data, spec: online_wm(
        f, spec, make_identity(2), data,
        OnlineConfig(iterations=2, plan_iterations=3, horizon=5,
                     finetune_steps=3, batch_size=8), seed=2),
}


@pytest.mark.parametrize("what", TRAINERS)
def test_a_diverged_loss_raises_with_the_earlier_losses(wall_spec, nan_on_call,
                                                         what):
    # the 4th step starts the second epoch of adversarial finetuning and the
    # second iteration of online finetuning
    data = _encoded_wall_dataset(wall_spec)
    f = init_world_model(2, 2, hidden=(8,), seed=4)
    train = TRAINERS[what]
    clean = train(f, data, wall_spec).batch_losses
    nan_on_call(4)
    with pytest.raises(dc.NumericFailure, match=f"^{what} loss diverged$") as err:
        train(f, data, wall_spec)
    assert err.value.trace == clean[:3]

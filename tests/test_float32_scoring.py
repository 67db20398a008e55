"""The sampling planners score their populations, and GBP takes each
iteration's loss and action gradient, through a float32 copy of the world
model (`worldmodel._float32`, made once per plan), and the FGSM attack
takes its input gradient through one made once per batch, while the rest
of the lab computes in float64: the sampling, the refit, GBP's Adam state,
every cost a plan reports and the attack's deltas. (The training step's
float32 mirror and its float64 master weights are checked in
`test_fit.py`.)
These checks bound what the narrower arithmetic changes, at the preset
shapes, and pin that a float64 model still computes in float64, that a
plan's reported cost is a float64 cost, and that the attack's float32
arithmetic fails loudly and warns of nothing."""

import warnings

import numpy as np
import pytest

from wmplanlab import diffcore as dc
from wmplanlab import envs, finetune, planners
from wmplanlab.data import flatten_transitions
from wmplanlab.diffcore import NumericFailure
from wmplanlab.encoder import encode, encode_dataset, make_random_fourier
from wmplanlab.finetune import (PerturbationConfig, _attack_deltas, adversarial_wm,
                                compute_radii)
from wmplanlab.planners import (GOAL_LOSSES, CemConfig, PlanConfig, RefineConfig,
                                cem, final_cost, gbp)
from wmplanlab.rng import generator
from wmplanlab.worldmodel import (WorldModel, _float32, init_world_model,
                                  mlp_forward, predict, rollout_model,
                                  rollout_nodes, step_loss_grad)

from conftest import linear_model

# float32 rounds to 24 bits (unit roundoff 6e-8). Over a 25-step rollout
# through 128-wide layers, the float32 costs of the populations below moved
# by at most 4.9e-7 relative to their float64 costs, so this bound leaves
# 20x room, and a float16 path (about 1e-3) still fails it. The bound is
# this model's, not float32's: a trained model can amplify the rounding
# along its rollout (5.0e-5 on the wall-awm preset's baseline checkpoint)
RTOL = 1e-5
K_ELITE = 30


@pytest.fixture(scope="module")
def scored():
    """(float64 model, z1, z_goal, population (300, 25, 2), its float32
    costs, its float64 costs) for each population that two preset-size CEM
    plans (300/30/30) scored, on a preset-width model (d_z 64, hidden
    128 x 128) between encoded Wall2D positions."""
    f = init_world_model(64, 2, (128, 128), seed=0)
    enc = make_random_fourier(2, 64, 4.0, 0)
    calls = []
    real = planners.final_cost

    def spy(g, z1, actions, z_goal):
        costs = real(g, z1, actions, z_goal)
        if np.ndim(costs):  # a population, not the plan
            calls.append((z1, z_goal, np.array(actions), costs))
        return costs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planners, "final_cost", spy)
        for seed in (0, 1):
            rng = generator(seed, "float32-scoring")
            z1, z_goal = (encode(enc, rng.uniform(0.0, 1.0, 2)) for _ in range(2))
            cem(f, z1, z_goal, CemConfig(k_elite=K_ELITE), seed)
    assert len(calls) == 60
    return [(f, z1, z_goal, population, costs, final_cost(f, z1, population, z_goal))
            for z1, z_goal, population, costs in calls]


def test_float32_costs_stay_within_the_bound_of_float64(scored):
    for _, _, _, population, costs, exact in scored:
        assert population.shape == (300, 25, 2)
        assert costs.dtype == exact.dtype == np.float64
        assert np.all(np.abs(costs - exact) <= RTOL * exact)


def test_an_elite_only_one_precision_picks_sits_at_the_boundary(scored):
    for *_, costs, exact in scored:
        elites = np.argsort(costs, kind="stable")[:K_ELITE]
        exact_elites = np.argsort(exact, kind="stable")[:K_ELITE]
        kth = exact[exact_elites[-1]]  # the k-th elite's float64 cost
        for i in np.setxor1d(elites, exact_elites):
            assert abs(exact[i] - kth) <= RTOL * kth


def test_ranking_a_population_twice_gives_the_same_elites(scored):
    f, z1, z_goal, population, costs, _ = scored[-1]
    again = final_cost(_float32(f), z1, population, z_goal)
    assert np.array_equal(again, costs)
    assert np.array_equal(np.argsort(again, kind="stable")[:K_ELITE],
                          np.argsort(costs, kind="stable")[:K_ELITE])


def _float64_rollout(f, z1, actions):
    """The latents of `actions` (B, H, d_a) from `z1`, one float64 forward
    (`mlp_forward`) per step: the arithmetic `rollout_model` always ran."""
    actions = np.asarray(actions, dtype=np.float64)
    z = np.broadcast_to(np.asarray(z1, dtype=np.float64),
                        actions.shape[:1] + (f.d_z,))
    out = []
    for t in range(actions.shape[1]):
        z = z + mlp_forward(f.weights, np.concatenate([z, actions[:, t]], -1))[0]
        out.append(z)
    return np.stack(out, axis=1)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d_z, hidden", [(64, (128, 128)), (6, (16, 16))])
def test_a_float64_model_still_computes_in_float64(dtype, d_z, hidden):
    f = init_world_model(d_z, 2, hidden, seed=3)
    rng = generator(3, "float64-model")
    z1 = rng.standard_normal(d_z).astype(dtype)
    actions = rng.standard_normal((17, 5, 2)).astype(dtype)
    reference = _float64_rollout(f, z1, actions)
    latents = rollout_model(f, z1, actions)
    assert latents.dtype == np.float64
    assert np.array_equal(latents, reference)
    step = predict(f, np.broadcast_to(z1, (17, d_z)), actions[:, 0])
    assert step.dtype == np.float64
    assert np.array_equal(step, reference[:, 0])


def test_a_float32_copy_computes_in_float32():
    f = init_world_model(6, 2, (16, 16), seed=4)
    g = _float32(f)
    assert all(w.dtype == np.float32 for w in g.weights)
    assert all(w.dtype == np.float64 for w in f.weights)  # the model is not touched
    rng = generator(4, "float32-model")
    z1, actions = rng.standard_normal(6), rng.standard_normal((3, 4, 2))
    assert rollout_model(g, z1, actions).dtype == np.float32
    assert predict(g, z1, actions[0, 0]).dtype == np.float32


def test_a_non_finite_float32_latent_raises():
    f = _float32(init_world_model(6, 2, (16, 16), seed=5))
    z1 = np.zeros(6)
    z1[2] = np.nan
    with pytest.raises(NumericFailure, match="rollout step 1"):
        final_cost(f, z1, np.zeros((4, 3, 2)), np.zeros(6))


def test_a_latent_beyond_float32s_range_raises_where_float64_scores_it():
    # z' = z + a @ (1e37 I): each action of 10 adds 1e38 per axis, so the
    # fourth step passes float32's largest value, 3.4e38, and float64's
    # costs stay finite (about 5e77)
    f = linear_model(1e37 * np.eye(2))
    actions = np.full((2, 5, 2), 10.0)
    exact = final_cost(f, np.zeros(2), actions, np.zeros(2))
    assert np.all(np.isfinite(exact))
    with np.errstate(over="ignore"), pytest.raises(NumericFailure):
        final_cost(_float32(f), np.zeros(2), actions, np.zeros(2))


def _node_loss_and_grad(f, z1, actions, z_goal, weights):
    """The "wm-rollout" node's loss and action gradient on model `f`."""
    tape = dc.Tape()
    a = tape.leaf(actions)
    loss = rollout_nodes(f, z1, a, z_goal, weights)
    (g,) = dc.grad(loss, [a])
    return float(loss.value), g


@pytest.mark.parametrize("loss", GOAL_LOSSES)
def test_gbps_float32_loss_and_gradient_stay_within_the_bound_of_float64(loss):
    # preset shapes: d_z 64, hidden 128 x 128, H 25, on encoded Wall2D
    # positions; 5 draws of start, goal and actions per goal loss
    f = init_world_model(64, 2, (128, 128), seed=0)
    g = _float32(f)
    enc = make_random_fourier(2, 64, 4.0, 0)
    weights = GOAL_LOSSES[loss](25)
    for draw in range(5):
        rng = generator(draw, "float32-gbp", loss)
        z1, z_goal = (encode(enc, rng.uniform(0.0, 1.0, 2)) for _ in range(2))
        actions = rng.standard_normal((25, 2))
        exact, exact_grad = _node_loss_and_grad(f, z1, actions, z_goal, weights)
        got, grad = _node_loss_and_grad(g, z1, actions, z_goal.astype(np.float32),
                                        weights)
        assert grad.dtype == np.float64
        assert abs(got - exact) <= RTOL * exact
        assert np.linalg.norm(grad - exact_grad) <= RTOL * np.linalg.norm(exact_grad)


@pytest.mark.parametrize("loss", GOAL_LOSSES)
def test_gbps_final_loss_is_the_float64_goal_loss_of_its_plan(loss):
    f = init_world_model(64, 2, (128, 128), seed=1)
    rng = generator(1, "float32-gbp-final", loss)
    z1, z_goal = rng.standard_normal(64), rng.standard_normal(64)
    cfg = PlanConfig(horizon=25, iterations=20, optimizer="adam", eta=0.2,
                     loss=loss, a_max=1.0)
    pr = gbp(f, z1, z_goal, cfg, seed=1)
    exact, _ = _node_loss_and_grad(f, z1, pr.actions, z_goal, GOAL_LOSSES[loss](25))
    assert pr.actions.dtype == np.float64
    assert pr.final_loss == exact
    assert abs(min(pr.loss_trace) - exact) <= RTOL * exact


def test_a_plan_casts_the_model_once(monkeypatch):
    # GradCEM's refinement runs gbp per sample on the copy cem made, which
    # `_float32` hands back as it is; the spy sits on the name `planners`
    # imports from `worldmodel`, where the planners look it up
    casts = []
    real = _float32

    def spy(f):
        g = real(f)
        casts.append(g is not f)
        return g

    monkeypatch.setattr(planners, "_float32", spy)
    f = init_world_model(6, 2, (16, 16), seed=6)
    z1, z_goal = np.zeros(6), np.ones(6)
    gbp(f, z1, z_goal, PlanConfig(horizon=4, iterations=5), seed=0)
    assert casts == [True]
    casts.clear()
    cfg = CemConfig(horizon=4, n_pop=6, k_elite=2, iterations=3,
                    refine=RefineConfig(steps=2))
    cem(f, z1, z_goal, cfg, seed=0)
    assert sum(casts) == 1 and len(casts) == 1 + 6 * 3


def test_a_latent_beyond_float32s_range_aborts_a_gbp_plan_where_float64_scores_it():
    # the GBP twin of the test above: the fourth step of the float32 rollout
    # passes 3.4e38, while the float64 goal loss is finite (about 5e77)
    f = linear_model(1e37 * np.eye(2))
    actions = np.full((5, 2), 10.0)
    exact, _ = _node_loss_and_grad(f, np.zeros(2), actions, np.zeros(2), None)
    assert np.isfinite(exact)
    cfg = PlanConfig(horizon=5, iterations=3, init_actions=actions)
    pr = gbp(f, np.zeros(2), np.zeros(2), cfg, seed=0)
    assert pr.aborted and pr.iterations == 0 and pr.loss_trace == []
    assert pr.final_loss == np.inf


def _float64_attack(f, Z, A, ZN, eps_a, eps_z, rng):
    """`finetune._attack_deltas` with the input gradient of `f` itself, as
    the attack took it in float64: the same start draws, sign step and clip.
    Returns the deltas (da, dz) and the gradients (gA, gZ)."""
    da = rng.uniform(-eps_a, eps_a, size=A.shape)
    dz = rng.uniform(-eps_z, eps_z, size=Z.shape)
    _, gz, ga = step_loss_grad(f, Z + dz, A + da, ZN, 1.0, True, None)
    return ((np.clip(da + 1.25 * eps_a * np.sign(ga), -eps_a, eps_a),
             np.clip(dz + 1.25 * eps_z * np.sign(gz), -eps_z, eps_z)), (ga, gz))


# A delta may flip only where the sign of the float64 gradient is in doubt:
# within this share of the batch's largest |g| of zero. On the batches below
# no delta flipped; over eleven benchmark pipelines (seeds 1 and 51-60), 6
# of 21.3 million did, each where |g| was at most 8.9e-8 of the largest
SIGN_BOUND = 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_the_attacks_float32_deltas_are_its_float64_deltas_at_preset_shapes(
        wall_spec, seed):
    # preset shapes: d_z 64, hidden 128 x 128, d_a 2, and one adversarial
    # batch of 48 encoded Wall2D trajectories of 49 transitions (2352 rows),
    # with the preset's radii; dataset, model and attack seeds 0-3
    enc = make_random_fourier(2, 64, 4.0, 0)
    data = encode_dataset(enc, envs.generate_dataset(wall_spec, 48, 50,
                                                     "goal-seeking-noisy", seed))
    Z, A, ZN = flatten_transitions(data)
    assert Z.shape == (2352, 64)
    f = init_world_model(64, 2, (128, 128), seed=seed)
    eps_a, eps_z = compute_radii(data.actions, data.latents, 0.5, 0.2)
    got = _attack_deltas(f, Z, A, ZN, eps_a, eps_z, generator(seed, "attack", 0))
    want, grads = _float64_attack(f, Z, A, ZN, eps_a, eps_z,
                                  generator(seed, "attack", 0))
    for delta, exact, g in zip(got, want, grads):
        assert delta.dtype == np.float64
        flipped = delta != exact
        assert np.all(np.abs(g[flipped]) <= SIGN_BOUND * np.abs(g).max())


def test_step_loss_grad_computes_in_the_dtype_of_the_weights(monkeypatch):
    # a float64 model computes on the caller's arrays themselves, uncopied;
    # its float32 copy casts them once and returns float32 gradients
    f = init_world_model(6, 2, (16, 16), seed=7)
    rng = generator(7, "step-dtype")
    Z, A, ZN = (rng.standard_normal((5, d)) for d in (6, 2, 6))
    seen = []
    real = WorldModel.forward

    def spy(self, z, a):
        seen.append((z, a))
        return real(self, z, a)

    monkeypatch.setattr(WorldModel, "forward", spy)
    _, gZ, gA = step_loss_grad(f, Z, A, ZN, 0.2, True, None)
    assert seen[0][0] is Z and seen[0][1] is A
    assert gZ.dtype == gA.dtype == np.float64
    _, gZ32, gA32 = step_loss_grad(_float32(f), Z, A, ZN, 0.2, True, None)
    assert seen[1][0].dtype == seen[1][1].dtype == np.float32
    assert gZ32.dtype == gA32.dtype == np.float32
    for got, exact in ((gZ32, gZ), (gA32, gA)):
        assert np.linalg.norm(got - exact) <= RTOL * np.linalg.norm(exact)
    Z32, A32 = Z.astype(np.float32), A.astype(np.float32)
    step_loss_grad(_float32(f), Z32, A32, ZN, 0.2, True, None)
    assert seen[2][0] is Z32 and seen[2][1] is A32


def test_an_attack_casts_the_model_once_per_batch(wall_spec, monkeypatch):
    # 6 trajectories in batches of 4 over 2 epochs: 4 batches, each attacked
    # through a fresh float32 copy of the float64 weights being trained
    casts = []

    def spy(f):
        g = _float32(f)
        casts.append((g is not f, f.weights[0].dtype, g.weights[0].dtype))
        return g

    monkeypatch.setattr(finetune, "_float32", spy)
    raw = envs.generate_dataset(wall_spec, 6, 8, "goal-seeking-noisy", 1)
    data = encode_dataset(make_random_fourier(2, d_z=8, seed=1), raw)
    f = init_world_model(8, 2, hidden=(16,), seed=7)
    adversarial_wm(f, data, PerturbationConfig(), epochs=2, batch_size=4,
                   lr=1e-3, seed=2)
    assert casts == [(True, np.float64, np.float32)] * 4


def test_an_attack_input_beyond_float32s_range_raises_without_a_warning():
    # a radius of 1e39 is a float64 number, but most start draws pass
    # float32's largest value, 3.4e38
    f = init_world_model(4, 2, hidden=(8,), seed=0)
    Z, A, ZN = np.zeros((3, 4)), np.zeros((3, 2)), np.zeros((3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure, match="does not fit in float32"):
            _attack_deltas(f, Z, A, ZN, 0.1, 1e39, generator(0, "attack-init"))


def test_a_non_finite_float32_attack_gradient_raises_without_a_warning():
    # the saturated tanh of the second layer has derivative 0 and meets an
    # incoming gradient of about 6e39, which overflows float32 but not
    # float64; the forward stays finite, as the output weights cancel
    f = init_world_model(2, 2, hidden=(2, 2), seed=0)
    f.weights[2] = np.full((2, 2), 1e30)
    f.weights[4] = np.array([[3e38, 3e38], [-3e38, -3e38]])
    Z, A, ZN = np.array([[0.1, 0.2]]), np.array([[0.3, -0.2]]), np.full((1, 2), -5.0)
    _, gz, ga = step_loss_grad(f, Z, A, ZN, 1.0, True, None)
    assert np.all(np.isfinite(gz)) and np.all(np.isfinite(ga))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure, match="backward pass"):
            _attack_deltas(f, Z, A, ZN, 1e-3, 1e-3, generator(0, "attack-init"))


def test_an_attack_whose_float32_loss_overflows_keeps_its_deltas():
    # targets 1e36 away: each squared error, about 1e72, overflows float32,
    # while each gradient entry, about 2e36, does not, though a float32 sum
    # of the 800 latent entries would (the gradient check sums in float64);
    # the attack discards the loss and takes the float64 attack's step,
    # warning of nothing
    f = init_world_model(4, 2, hidden=(8,), seed=0)
    rng = generator(0, "attack-overflow")
    Z, A = rng.standard_normal((200, 4)), rng.standard_normal((200, 2))
    ZN = np.full((200, 4), 1e36)
    with np.errstate(over="ignore"):
        assert step_loss_grad(_float32(f), Z, A, ZN, 1.0, False, None)[0] == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _attack_deltas(f, Z, A, ZN, 0.1, 0.2, generator(0, "attack-init"))
    want, _ = _float64_attack(f, Z, A, ZN, 0.1, 0.2, generator(0, "attack-init"))
    for delta, exact in zip(got, want):
        assert np.array_equal(delta, exact)

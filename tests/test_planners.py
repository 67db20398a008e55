import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from wmplanlab import cli, envs, planners, presets
from wmplanlab import diffcore as dc
from wmplanlab.encoder import encode, make_identity
from wmplanlab.planners import (GOAL_LOSSES, CemConfig, MpcConfig, MppiConfig,
                                PlanConfig, RefineConfig, cem, final_cost, gbp,
                                mpc, mppi, run_planner)
from wmplanlab.rng import generator
from wmplanlab.worldmodel import _float32, init_world_model, predict, rollout_nodes

from conftest import linear_model, rel_err


def _rollout_with_distances(dists, d=2):
    """A linear model, a zero start latent and an action leaf whose rollout
    visits latents at prescribed squared distances from a zero goal."""
    zs = np.zeros((len(dists) + 1, d))
    zs[1:, 0] = np.sqrt(dists)
    tape = dc.Tape()
    return linear_model(np.eye(d)), zs[0], tape.leaf(np.diff(zs, axis=0))


def _goal_loss(dists, weights) -> float:
    """The goal loss of a rollout whose latents lie at squared distances
    `dists` from a zero goal, with the goal loss weights `weights`."""
    f, z1, a = _rollout_with_distances(dists)
    return float(rollout_nodes(f, z1, a, np.zeros(2), weights).value)


def test_goal_loss_final_mode():
    assert _goal_loss([4.0, 16.0], None) == pytest.approx(16.0)


def test_goal_loss_weighted_hand_example():
    # H=2, w=(0.5,0.5), distances (4,16): (1/2) * (0.5*4 + 0.5*16) = 5
    assert _goal_loss([4.0, 16.0], np.array([0.5, 0.5])) == pytest.approx(5.0)


def test_goal_loss_weighted_degenerate_equals_final_over_h():
    w = np.array([1e-15, 1.0])
    assert _goal_loss([4.0, 16.0], w / w.sum()) == pytest.approx(16.0 / 2)


def test_goal_loss_zero_at_goal():
    assert _goal_loss([0.0, 0.0, 0.0], None) == 0.0
    assert _goal_loss([0.0, 0.0, 0.0], np.full(3, 1 / 3)) == 0.0


def test_wgl_presets_shapes():
    assert GOAL_LOSSES["final"](4) is None
    for name, heavier in (("late-heavy", -1), ("early-heavy", 0)):
        w = GOAL_LOSSES[name](4)
        assert w.shape == (4,) and np.all(w > 0)
        assert w.sum() == pytest.approx(1.0)
        assert w[heavier] == w.max()


def test_gbp_linear_model_reaches_least_squares_optimum():
    B = np.array([[0.6, 0.1], [0.0, 0.5]])
    f = linear_model(B)
    z1 = np.array([0.2, -0.3])
    z_goal = np.array([0.5, 0.4])
    cfg = PlanConfig(horizon=1, iterations=300, optimizer="sgd", eta=1.0)
    pr = gbp(f, z1, z_goal, cfg, seed=0)
    a_star = np.linalg.solve(B.T, z_goal - z1)
    assert pr.final_loss < 1e-8
    assert np.allclose(pr.actions[0], a_star, atol=1e-4)
    assert len(pr.loss_trace) == 300


def test_gbp_zero_actions_fixed_point():
    f = init_world_model(4, 2, seed=0)
    f.weights[-2] = np.zeros_like(f.weights[-2])
    f.weights[-1] = np.zeros_like(f.weights[-1])
    z = np.array([0.1, 0.2, 0.3, 0.4])
    cfg = PlanConfig(horizon=3, iterations=5, optimizer="sgd", eta=0.1,
                     init_actions=np.zeros((3, 2)))
    pr = gbp(f, z, z, cfg, seed=0)
    assert pr.loss_trace[0] == 0.0
    assert pr.final_loss == 0.0


def test_gbp_single_iteration_returns_init():
    f = init_world_model(4, 2, seed=1)
    rng_init = generator(9, "gbp-init").standard_normal((3, 2))
    cfg = PlanConfig(horizon=3, iterations=1, optimizer="sgd", eta=0.5)
    pr = gbp(f, np.zeros(4), np.ones(4), cfg, seed=9)
    assert np.array_equal(pr.actions, rng_init)
    with pytest.raises(ValueError):
        PlanConfig(horizon=3, iterations=0)


def test_gbp_rejects_init_of_the_wrong_horizon():
    f = init_world_model(4, 2, seed=1)
    cfg = PlanConfig(horizon=3, iterations=2, init_actions=np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"init shape \(4, 2\) != \(3, 2\)"):
        gbp(f, np.zeros(4), np.ones(4), cfg, seed=0)


def test_gbp_adam_vanishing_eta_keeps_init():
    f = init_world_model(4, 2, seed=2)
    cfg = PlanConfig(horizon=3, iterations=20, optimizer="adam", eta=1e-12)
    init = generator(4, "gbp-init").standard_normal((3, 2))
    pr = gbp(f, np.zeros(4), np.ones(4), cfg, seed=4)
    assert np.allclose(pr.actions, init, atol=1e-9)


def test_gbp_best_iterate_no_worse_than_init():
    for seed in range(5):
        f = init_world_model(6, 2, seed=seed)
        rng = generator(seed, "bi")
        cfg = PlanConfig(horizon=4, iterations=40, optimizer="adam", eta=0.3,
                         a_max=1.0)
        pr = gbp(f, rng.standard_normal(6), rng.standard_normal(6), cfg, seed)
        assert pr.final_loss <= pr.loss_trace[0] + 1e-15


def test_gbp_clamps_actions():
    f = linear_model(np.eye(2) * 0.5)
    cfg = PlanConfig(horizon=2, iterations=30, optimizer="sgd", eta=1.0,
                     a_max=0.05)
    pr = gbp(f, np.zeros(2), np.array([5.0, 5.0]), cfg, seed=0)
    assert np.all(np.abs(pr.actions) <= 0.05 + 1e-15)


@pytest.mark.parametrize("a_max", [math.inf, 2.0], ids=["free", "clamped"])
@pytest.mark.parametrize("optimizer, eta", [("sgd", 0.5), ("adam", 0.3)])
def test_gbp_returns_the_iterate_its_final_loss_scores(optimizer, eta, a_max):
    # the optimizer and the clamp step the action array in place after the
    # best iterate is kept, so the plan must return a copy of that iterate.
    # The trace holds float32 losses; `final_loss` is the float64 loss of the
    # returned iterate, the one whose float32 loss is the trace's least
    f = init_world_model(6, 2, hidden=(16,), seed=3)
    rng = generator(3, "best-iterate")
    z1, z_goal = rng.standard_normal(6), rng.standard_normal(6)
    cfg = PlanConfig(horizon=4, iterations=30, optimizer=optimizer, eta=eta,
                     a_max=a_max)
    pr = gbp(f, z1, z_goal, cfg, seed=3)
    assert pr.iterations == 30
    tape = dc.Tape()
    exact = rollout_nodes(f, z1, tape.leaf(pr.actions), z_goal, None)
    assert pr.final_loss == float(exact.value)
    assert rel_err(pr.final_loss, min(pr.loss_trace)) <= FLOAT32_SCORING_RTOL
    again = gbp(f, z1, z_goal, replace(cfg, iterations=1, init_actions=pr.actions),
                seed=0)
    assert again.loss_trace == [min(pr.loss_trace)]
    assert again.final_loss == pr.final_loss


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_gbp_leaves_the_callers_init_actions_unchanged(optimizer):
    f = init_world_model(6, 2, hidden=(16,), seed=4)
    init = 2.0 * generator(4, "init").standard_normal((4, 2))  # past a_max
    kept = init.copy()
    for return_best in (True, False):
        cfg = PlanConfig(horizon=4, iterations=10, optimizer=optimizer, eta=0.3,
                         init_actions=init, a_max=0.5, return_best=return_best)
        pr = gbp(f, np.zeros(6), np.ones(6), cfg, seed=0)
        assert np.array_equal(init, kept)
        assert not np.shares_memory(pr.actions, init)


def test_gbp_aborts_on_divergence():
    # grossly unstable step size: loss explodes to inf, gbp truncates
    f = linear_model(np.eye(2))
    cfg = PlanConfig(horizon=1, iterations=300, optimizer="sgd", eta=10.0)
    pr = gbp(f, np.zeros(2), np.ones(2), cfg, seed=0)
    assert pr.aborted
    assert pr.iterations < 300
    assert all(np.isfinite(x) for x in pr.loss_trace[:-1])


def test_a_diverging_gbp_plan_aborts_without_a_warning():
    # unbounded SGD at eta 1.0 on the identity model overflows the float32
    # squared distance before the loss turns non-finite; the plan reports the
    # abort, and NumPy warns of nothing
    f = linear_model(np.eye(2))
    cfg = PlanConfig(horizon=2, iterations=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pr = gbp(f, np.zeros(2), np.ones(2), cfg, seed=0)
    assert pr.aborted
    assert pr.iterations < 100


def test_gbp_checks_its_start_and_goal_once_not_its_actions_each_iteration(
        monkeypatch):
    calls = []
    tensor = dc.tensor

    def counting_tensor(value):
        calls.append(np.array(value).shape)
        return tensor(value)

    monkeypatch.setattr(dc, "tensor", counting_tensor)
    f = init_world_model(6, 2, hidden=(16,), seed=4)
    cfg = PlanConfig(horizon=4, iterations=10, optimizer="adam", eta=0.3)
    pr = gbp(f, np.zeros(6), np.ones(6), cfg, seed=0)
    assert pr.iterations == 10
    assert calls == [(6,), (6,)]


def test_gbp_aborts_on_an_infinite_action_that_a_tanh_layer_saturates():
    # tanh maps the infinite pre-activations to +-1, so the rollout stays
    # finite: only the check on the actions themselves stops the plan
    f = init_world_model(6, 2, hidden=(16,), seed=4)
    init = np.zeros((4, 2))
    init[2, 1] = np.inf
    assert np.isfinite(final_cost(f, np.zeros(6), init, np.ones(6)))
    cfg = PlanConfig(horizon=4, iterations=5, init_actions=init)
    pr = gbp(f, np.zeros(6), np.ones(6), cfg, seed=0)
    assert pr.aborted
    assert pr.loss_trace == [] and pr.iterations == 0 and pr.model_evals == 0


def test_cem_identity_model_quadratic():
    f = linear_model(np.eye(2))
    z1 = np.array([0.3, -0.2])
    z_goal = np.array([-0.4, 0.5])
    cfg = CemConfig(horizon=1, n_pop=300, k_elite=30, iterations=30)
    pr = cem(f, z1, z_goal, cfg, seed=0)
    assert np.linalg.norm(pr.actions[0] - (z_goal - z1)) < 1e-2
    assert len(pr.loss_trace) == 30


@pytest.fixture
def cem_scores(monkeypatch):
    """The (actions, costs) of each `planners.final_cost` call, which `cem`
    makes once per population, (n_pop, H, d_a), then once for its plan."""
    calls = []
    real = planners.final_cost

    def spy(f, z1, actions, z_goal):
        costs = real(f, z1, actions, z_goal)
        calls.append((np.array(actions), costs))
        return costs

    monkeypatch.setattr(planners, "final_cost", spy)
    return calls


def _populations(cem_scores, n_pop):
    """Each population a CEM plan scored, (n_pop, H * d_a), with its costs."""
    return [(c.reshape(n_pop, -1), costs) for c, costs in cem_scores[:-1]]


def _refit(candidates, costs, k_elite, jitter=1e-6):
    """The Gaussian refit to the `k_elite` cheapest candidates, with `cem`'s
    expressions: (mu, sigma)."""
    elites = candidates[np.argsort(costs, kind="stable")[:k_elite]]
    mu = elites.mean(axis=0)
    diffs = elites - mu
    return mu, diffs.T @ diffs / k_elite + jitter * np.eye(len(mu))


def test_cem_elites_and_full_selection(cem_scores):
    # each population is drawn from the Gaussian refit to the k cheapest of
    # the one before, and the plan is the last refit's mean
    f = init_world_model(4, 2, seed=3)
    cfg = CemConfig(horizon=3, n_pop=40, k_elite=8, iterations=4)
    plan = cem(f, np.zeros(4), np.ones(4), cfg, seed=1).actions
    populations = _populations(cem_scores, 40)
    assert len(populations) == 4
    rng = generator(1, "cem")
    mu, sigma = np.zeros(6), np.eye(6)
    for candidates, costs in populations:
        eps = rng.standard_normal((40, 6))
        assert np.allclose(candidates, mu + eps @ np.linalg.cholesky(sigma).T)
        elite = np.argsort(costs, kind="stable")[:8]
        assert costs[elite].max() <= np.delete(costs, elite).min()
        mu, sigma = _refit(candidates, costs, 8)
    assert np.array_equal(cem_scores[-1][0], plan)
    assert np.allclose(plan.ravel(), mu)
    # K = N_pop: the plan is the population mean
    cem_scores.clear()
    cfg_all = CemConfig(horizon=2, n_pop=16, k_elite=16, iterations=1)
    plan = cem(f, np.zeros(4), np.ones(4), cfg_all, seed=2).actions
    (candidates, _), = _populations(cem_scores, 16)
    assert np.allclose(plan.ravel(), candidates.mean(axis=0))


def test_cem_vanishing_sigma_keeps_mean():
    # degenerate sampling: every candidate collapses onto mu_0
    f = linear_model(np.eye(2))
    cfg = CemConfig(horizon=1, n_pop=20, k_elite=5, iterations=1, sigma0=1e-9)
    pr = cem(f, np.zeros(2), np.ones(2), cfg, seed=5)
    assert np.all(np.abs(pr.actions) < 1e-7)


def test_cem_samples_from_the_diagonal_when_every_cholesky_repair_fails(
        monkeypatch, cem_scores):
    assert planners._safe_cholesky(-np.eye(2), 1e-6) is None
    monkeypatch.setattr(planners, "_safe_cholesky", lambda sigma, jitter: None)
    cfg = CemConfig(horizon=2, n_pop=20, k_elite=5, iterations=2)
    cem(linear_model(np.eye(2)), np.zeros(2), np.ones(2), cfg, seed=5)
    (first, costs), (second, _) = _populations(cem_scores, 20)
    rng = generator(5, "cem")
    assert np.array_equal(first, rng.standard_normal((20, 4)))
    mu, sigma = _refit(first, costs, 5)
    assert np.array_equal(second,
                          mu + rng.standard_normal((20, 4)) * np.sqrt(np.diag(sigma)))


def test_cem_deterministic():
    f = init_world_model(4, 2, seed=4)
    cfg = CemConfig(horizon=3, n_pop=30, k_elite=6, iterations=5)
    p1 = cem(f, np.zeros(4), np.ones(4), cfg, seed=11)
    p2 = cem(f, np.zeros(4), np.ones(4), cfg, seed=11)
    assert np.array_equal(p1.actions, p2.actions)
    assert p1.loss_trace == p2.loss_trace


def test_cem_config_validation():
    with pytest.raises(ValueError):
        CemConfig(n_pop=10, k_elite=11)
    with pytest.raises(ValueError):
        CemConfig(iterations=0)
    with pytest.raises(ValueError):
        CemConfig(horizon=0)
    with pytest.raises(ValueError, match="refine_steps"):
        RefineConfig(steps=-1)


def test_mppi_single_sample_moves_to_it():
    f = linear_model(np.eye(2))
    cfg = MppiConfig(horizon=2, samples=1, sigma=0.7, temperature=1.0, iterations=1)
    pr = mppi(f, np.zeros(2), np.ones(2), cfg, seed=21)
    eps = 0.7 * generator(21, "mppi").standard_normal((1, 2, 2))
    assert np.allclose(pr.actions, eps[0], atol=1e-15)


def test_mppi_infinite_temperature_averages_uniformly():
    f = linear_model(np.eye(2))
    cfg = MppiConfig(horizon=2, samples=16, sigma=0.5, temperature=1e12, iterations=1)
    pr = mppi(f, np.zeros(2), np.ones(2), cfg, seed=22)
    eps = 0.5 * generator(22, "mppi").standard_normal((16, 2, 2))
    assert np.allclose(pr.actions, eps.mean(axis=0), atol=1e-12)


def test_mppi_cost_decreases_on_quadratic():
    # measured on this frozen config: strictly decreasing to ~1e-3
    f = linear_model(np.eye(2))
    cfg = MppiConfig(horizon=1, samples=64, sigma=0.3, temperature=0.05, iterations=50)
    pr = mppi(f, np.array([0.5, 0.5]), np.array([-0.5, -0.2]), cfg, seed=7)
    trace = np.array(pr.loss_trace)
    assert trace[-1] < 0.05 * trace[0]
    rises = np.diff(trace)
    assert np.all(rises <= 0.05 * trace[0])


def test_gradcem_zero_refine_steps_reduces_to_cem():
    f = init_world_model(4, 2, seed=5)
    cfg = CemConfig(horizon=2, n_pop=20, k_elite=5, iterations=4)
    base = cem(f, np.zeros(4), np.ones(4), cfg, seed=13)
    red = cem(f, np.zeros(4), np.ones(4), replace(cfg, refine=RefineConfig(steps=0)),
              seed=13)
    assert np.array_equal(base.actions, red.actions)
    assert base.loss_trace == red.loss_trace


def test_gradcem_reaches_threshold_in_fewer_iterations(cem_scores):
    # measured over seeds 0-5: gradcem's mean hits the 1e-2 loss threshold
    # at iteration 1, plain cem needs 2-3 under the matched population
    f = linear_model(np.eye(2))
    z1, z_goal = np.zeros(2), np.array([0.8, -0.6])
    cfg = CemConfig(horizon=1, n_pop=50, k_elite=10, iterations=8)

    def mu_costs(run):
        cem_scores.clear()
        run()
        mus = [_refit(c, costs, 10)[0] for c, costs in _populations(cem_scores, 50)]
        return [float(np.sum((z1 + m.reshape(1, 2)[0] - z_goal) ** 2))
                for m in mus]

    def first_below(costs, tau=1e-2):
        return next((i + 1 for i, c in enumerate(costs) if c <= tau),
                    len(costs) + 1)

    for seed in (0, 3, 5):
        plain = mu_costs(lambda: cem(f, z1, z_goal, cfg, seed))
        refined = mu_costs(lambda: cem(
            f, z1, z_goal, replace(cfg, refine=RefineConfig(steps=2, eta=0.3)),
            seed))
        assert first_below(refined) < first_below(plain)


def test_gradcem_single_candidate_equals_gbp_from_sample():
    f = init_world_model(4, 2, seed=6)
    z1, z_goal = np.zeros(4), np.ones(4)
    steps = 25
    cfg = CemConfig(horizon=2, n_pop=1, k_elite=1, iterations=1, sigma0=1.0,
                    refine=RefineConfig(steps=steps, eta=0.3))
    pr = cem(f, z1, z_goal, cfg, seed=31)
    # reconstruct the single sample, then run gbp from it
    rng = generator(31, "cem")
    eps = rng.standard_normal((1, 4))
    chol = np.linalg.cholesky(np.eye(4))
    sample = (eps @ chol.T)[0].reshape(2, 2)
    plan = PlanConfig(horizon=2, iterations=steps, optimizer="adam", eta=0.3,
                      init_actions=sample, return_best=False)
    ref = gbp(f, z1, z_goal, plan, seed=0)
    assert np.array_equal(pr.actions, ref.actions)


def test_plan_config_rejects_an_unknown_optimizer_or_init():
    with pytest.raises(ValueError, match="optimizer: expected one of .* got 'adamw'"):
        PlanConfig(optimizer="adamw")
    with pytest.raises(TypeError, match="'init'"):  # init_actions is the only init
        PlanConfig(init="zeros")


def _scoring_case(seed=9, d_z=6):
    f = init_world_model(d_z, 2, hidden=(16, 16), seed=seed)
    rng = generator(seed, "scoring")
    return f, rng.standard_normal(d_z), rng.standard_normal(d_z)


def test_final_cost_of_one_sequence_is_the_dot_of_its_last_latent():
    f, z1, z_goal = _scoring_case()
    acts = generator(9, "fc-one").standard_normal((4, 2))
    z = z1
    for a in acts:  # the one-row rollout, step by step
        z = predict(f, z, a)
    d = z - z_goal
    cost = final_cost(f, z1, acts, z_goal)
    assert type(cost) is float
    assert cost == float(d @ d)


def test_final_cost_scores_each_sequence_of_a_batch():
    f, z1, z_goal = _scoring_case()
    acts = generator(9, "fc-batch").standard_normal((2, 3, 4, 2))
    costs = final_cost(f, z1, acts, z_goal)
    assert costs.shape == (2, 3)
    for cost, a in zip(costs.ravel(), acts.reshape(-1, 4, 2)):
        assert rel_err(cost, final_cost(f, z1, a, z_goal)) <= 1e-12


# batched and one-at-a-time float32 scores of one population differ only by
# the summation order of float32 products: by 6e-16 at these tests' shapes,
# and by at most 4.9e-7 per cost at preset shapes (300 x 25, d_z 64, hidden
# 128 x 128) on an initial model. The bound is about 8 units of float32's
# epsilon, 1.2e-7
FLOAT32_SCORING_RTOL = 1e-6


def test_cem_costs_and_elites_match_one_at_a_time_scoring(cem_scores):
    f, z1, z_goal = _scoring_case()
    scorer = _float32(f)  # the copy cem scores its populations with
    H, cfg = 4, CemConfig(horizon=4, n_pop=60, k_elite=6, iterations=3)
    pr = cem(f, z1, z_goal, cfg, seed=2)
    assert pr.final_loss == final_cost(f, z1, pr.actions, z_goal)  # float64
    populations = _populations(cem_scores, 60)
    assert len(populations) == 3
    for candidates, costs in populations:
        alone = np.array([final_cost(scorer, z1, c.reshape(H, 2), z_goal)
                          for c in candidates])
        assert rel_err(costs, alone) <= FLOAT32_SCORING_RTOL
        assert np.array_equal(np.argsort(costs, kind="stable")[:cfg.k_elite],
                              np.argsort(alone, kind="stable")[:cfg.k_elite])


def test_mppi_matches_one_at_a_time_scoring():
    f, z1, z_goal = _scoring_case()
    H, cfg = 4, MppiConfig(horizon=4, samples=32, sigma=0.5, temperature=0.5,
                           iterations=3)
    pr = mppi(f, z1, z_goal, cfg, seed=4)
    # MPPI with every sample scored on its own by the float32 copy, and the
    # plan's traced cost in float64
    scorer = _float32(f)
    rng = generator(4, "mppi")
    nom, trace = np.zeros((H, 2)), []
    for _ in range(cfg.iterations):
        eps = cfg.sigma * rng.standard_normal((cfg.samples, H, 2))
        costs = np.array([final_cost(scorer, z1, nom + e, z_goal) for e in eps])
        w = np.exp(-(costs - costs.min()) / cfg.temperature)
        nom = nom + np.tensordot(w / w.sum(), eps, axes=1)
        trace.append(final_cost(f, z1, nom, z_goal))
    assert rel_err(pr.actions, nom) <= FLOAT32_SCORING_RTOL
    assert rel_err(pr.loss_trace, trace) <= FLOAT32_SCORING_RTOL
    assert pr.final_loss == final_cost(f, z1, pr.actions, z_goal)


def test_model_evals_count_rows_at_the_benchmark_sizes(wall_spec):
    # the benchmark's planners: the wall presets' gbp_adam under MPC's
    # plan_iters, cem 300/30/30 and mppi 64; the model's size does not count
    cfg = presets.get_preset("wall-baseline")
    built = {name: cli.build_planner(name, cfg["planners"][name], wall_spec)
             for name in ("gbp_adam", "cem", "mppi")}
    built["gbp_adam"] = replace(built["gbp_adam"],
                                iterations=cfg["eval"]["mpc"]["plan_iters"])
    f = init_world_model(4, 2, hidden=(8,), seed=0)
    evals = {name: run_planner(f, np.zeros(4), np.ones(4), planner, seed=3).model_evals
             for name, planner in built.items()}
    # gbp_adam: 100 rollouts of 25 steps, and the returned iterate's rescoring
    assert evals == {"gbp_adam": 2525, "cem": 225025, "mppi": 1625}


def test_gradcem_model_evals_add_each_refinement():
    f = init_world_model(4, 2, hidden=(8,), seed=0)
    H, cfg = 3, CemConfig(horizon=3, n_pop=5, k_elite=2, iterations=2)
    pr = cem(f, np.zeros(4), np.ones(4), replace(cfg, refine=RefineConfig(steps=2)),
             seed=1)
    # per sample: a 2-step gbp (2 rollouts) plus its cost; then the plan's cost
    assert pr.model_evals == cfg.iterations * cfg.n_pop * (2 * H + H) + H
    plain = cem(f, np.zeros(4), np.ones(4), replace(cfg, refine=RefineConfig(steps=0)),
                seed=1)
    assert plain.model_evals == cfg.iterations * cfg.n_pop * H + H


def test_gbp_model_evals_count_completed_rollouts():
    f = linear_model(np.eye(2))
    # each completed rollout, plus the float64 rescoring of the returned iterate
    pr = gbp(f, np.zeros(2), np.ones(2), PlanConfig(horizon=3, iterations=7), seed=0)
    assert pr.model_evals == 3 * 7 + 3
    blown = gbp(f, np.zeros(2), np.ones(2), PlanConfig(
        horizon=1, iterations=300, optimizer="sgd", eta=10.0), seed=0)
    assert blown.aborted
    assert blown.model_evals == len(blown.loss_trace) + 1


def _no_wall_spec():
    return envs.EnvSpec(envs.WALL2D, 1.0, (), (), a_max=0.05, frameskip=5)


def test_mpc_reduces_to_open_loop():
    spec = _no_wall_spec()
    enc = make_identity(2)
    f = linear_model(np.eye(2) * spec.frameskip)
    start = envs.EnvState(np.array([0.2, 0.2]), np.zeros(2))
    goal_obs = np.array([0.8, 0.7])
    task = envs.TaskInstance(start, goal_obs, envs.state_of_obs(spec, goal_obs), 25)
    plan = PlanConfig(horizon=4, iterations=20, optimizer="sgd", eta=0.01,
                      a_max=spec.a_max)
    cfg = MpcConfig(steps=1, k_exec=None, plan_iters=None, eta=None)
    mr = mpc(spec, f, enc, task, plan, cfg, seed=77)
    z1 = encode(enc, envs.obs_of(spec, start))
    z_goal = encode(enc, goal_obs)
    open_loop = run_planner(f, z1, z_goal, plan, seed=77)
    n = len(mr.executed)  # may stop early on success
    assert np.array_equal(mr.executed, open_loop.actions[:n])


def test_mpc_perfect_model_solvable_task_succeeds():
    spec = _no_wall_spec()
    enc = make_identity(2)
    f = linear_model(np.eye(2) * spec.frameskip)  # exact model away from clamps
    start = envs.EnvState(np.array([0.3, 0.4]), np.zeros(2))
    goal_obs = np.array([0.4, 0.25])  # reachable in one step
    task = envs.TaskInstance(start, goal_obs, envs.state_of_obs(spec, goal_obs), 1)
    plan = PlanConfig(horizon=1, iterations=50, optimizer="sgd", eta=0.02,
                      a_max=spec.a_max)
    mr = mpc(spec, f, enc, task, plan, MpcConfig(steps=1, plan_iters=None), seed=5)
    assert mr.success


def test_mpc_k_exec_validation():
    spec = _no_wall_spec()
    enc = make_identity(2)
    f = linear_model(np.eye(2))
    start = envs.EnvState(np.array([0.3, 0.4]), np.zeros(2))
    task = envs.TaskInstance(start, np.array([0.9, 0.9]),
                             envs.state_of_obs(spec, np.array([0.9, 0.9])), 1)
    for planner in (PlanConfig(horizon=2, iterations=2),
                    CemConfig(horizon=2, n_pop=4, k_elite=2, iterations=1),
                    MppiConfig(horizon=2, samples=4)):
        with pytest.raises(ValueError, match="k_exec"):
            mpc(spec, f, enc, task, planner, MpcConfig(steps=1, k_exec=3), seed=0)


def test_mpc_warm_start_shifts_actions():
    spec = _no_wall_spec()
    enc = make_identity(2)
    f = linear_model(np.eye(2) * spec.frameskip)
    start = envs.EnvState(np.array([0.1, 0.1]), np.zeros(2))
    goal_obs = np.array([0.95, 0.95])
    task = envs.TaskInstance(start, goal_obs, envs.state_of_obs(spec, goal_obs), 25)
    plan = PlanConfig(horizon=3, iterations=5, optimizer="sgd", eta=0.01,
                      a_max=spec.a_max)
    cfg = MpcConfig(steps=3, k_exec=1, plan_iters=None, eta=None, warm_start=True)
    mr = mpc(spec, f, enc, task, plan, cfg, seed=3)
    assert len(mr.plan_results) == 3


def test_run_planner_dispatch():
    f = linear_model(np.eye(2))
    for planner in (PlanConfig(horizon=2, iterations=3),
                    CemConfig(horizon=2, n_pop=8, k_elite=2, iterations=2),
                    CemConfig(horizon=2, n_pop=8, k_elite=2, iterations=2,
                              refine=RefineConfig(steps=1)),
                    MppiConfig(horizon=2, samples=4, iterations=2)):
        pr = run_planner(f, np.zeros(2), np.ones(2), planner, seed=1)
        assert pr.actions.shape == (2, 2)
    with pytest.raises(TypeError, match="not a planner config"):
        run_planner(f, np.zeros(2), np.ones(2), RefineConfig(), seed=0)


# each planner config with the planner function it must reach
_DISPATCH = [
    (PlanConfig(horizon=2, iterations=2), "gbp"),
    (CemConfig(horizon=2, n_pop=4, k_elite=2, iterations=1), "cem"),
    (CemConfig(horizon=2, n_pop=4, k_elite=2, iterations=1,
               refine=RefineConfig(steps=1)), "cem"),
    (MppiConfig(horizon=2, samples=4), "mppi"),
]


@pytest.mark.parametrize("planner, target", _DISPATCH,
                         ids=["gbp", "cem", "gradcem", "mppi"])
def test_run_planner_and_mpc_reach_the_module_binding(monkeypatch, planner, target):
    # the benchmark's tracer patches planners.gbp, .cem and .mppi; every plan
    # must go through the patched binding, not a reference taken at import
    calls = []

    def spy(name):
        real = getattr(planners, name)

        def wrapped(f, z1, z_goal, cfg, seed, **kwargs):
            calls.append((name, cfg))
            return real(f, z1, z_goal, cfg, seed, **kwargs)
        return wrapped

    for name in ("gbp", "cem", "mppi"):
        monkeypatch.setattr(planners, name, spy(name))
    f = linear_model(np.eye(2))
    run_planner(f, np.zeros(2), np.ones(2), planner, seed=1)
    spec = _no_wall_spec()
    start = envs.EnvState(np.array([0.2, 0.2]), np.zeros(2))
    goal_obs = np.array([0.8, 0.7])
    task = envs.TaskInstance(start, goal_obs, envs.state_of_obs(spec, goal_obs), 2)
    mpc(spec, f, make_identity(2), task, planner, MpcConfig(steps=1), seed=1)
    # one plan from run_planner, one from the single MPC step
    assert [name for name, cfg in calls if type(cfg) is type(planner)] == [target] * 2
    # GradCEM refines each sample with gbp, through the same binding
    refined = getattr(planner, "refine", None) is not None
    assert ("gbp" in [name for name, _ in calls]) == (target == "gbp" or refined)

from dataclasses import replace

import numpy as np
import pytest

from wmplanlab import cli, envs, planners, presets
from wmplanlab import diffcore as dc
from wmplanlab.encoder import encode, make_identity
from wmplanlab.planners import (CemConfig, GoalLossSpec, MpcConfig, MppiConfig,
                                PlanConfig, RefineConfig, cem, final_cost, gbp,
                                goal_loss, mpc, mppi, run_planner, wgl_late_heavy)
from wmplanlab.rng import generator
from wmplanlab.worldmodel import init_world_model, predict

from conftest import linear_model, rel_err


def _rollout_with_distances(dists, d=2):
    """A linear model, a zero start latent and an action leaf whose rollout
    visits latents at prescribed squared distances from a zero goal."""
    zs = np.zeros((len(dists) + 1, d))
    zs[1:, 0] = np.sqrt(dists)
    tape = dc.Tape()
    return linear_model(np.eye(d)), tape.constant(zs[0]), tape.leaf(np.diff(zs, axis=0))


def test_goal_loss_final_mode():
    f, z1, a = _rollout_with_distances([4.0, 16.0])
    loss = goal_loss(GoalLossSpec(), f, z1, a, np.zeros(2))
    assert float(loss.value) == pytest.approx(16.0)


def test_goal_loss_weighted_hand_example():
    # H=2, w=(1,1), distances (4,16): (1/2) * (0.5*4 + 0.5*16) = 5
    f, z1, a = _rollout_with_distances([4.0, 16.0])
    spec = GoalLossSpec(np.array([1.0, 1.0]))
    assert float(goal_loss(spec, f, z1, a, np.zeros(2)).value) == pytest.approx(5.0)


def test_goal_loss_weighted_degenerate_equals_final_over_h():
    f, z1, a = _rollout_with_distances([4.0, 16.0])
    spec = GoalLossSpec(np.array([1e-15, 1.0]))
    final = 16.0
    assert float(goal_loss(spec, f, z1, a, np.zeros(2)).value) == pytest.approx(final / 2)


def test_goal_loss_zero_at_goal():
    f, z1, a = _rollout_with_distances([0.0, 0.0, 0.0])
    assert float(goal_loss(GoalLossSpec(), f, z1, a, np.zeros(2)).value) == 0.0
    w = GoalLossSpec(np.ones(3))
    assert float(goal_loss(w, f, z1, a, np.zeros(2)).value) == 0.0


def test_goal_loss_validates_weights():
    f, z1, a = _rollout_with_distances([1.0, 1.0])
    with pytest.raises(ValueError, match="length"):
        goal_loss(GoalLossSpec(np.ones(3)), f, z1, a, np.zeros(2))
    with pytest.raises(ValueError, match="positive"):
        goal_loss(GoalLossSpec(np.array([1.0, 0.0])), f, z1, a, np.zeros(2))


def test_wgl_presets_shapes():
    spec = wgl_late_heavy(4)
    assert spec.weights.shape == (4,)
    assert spec.weights[-1] > spec.weights[0]


def test_gbp_linear_model_reaches_least_squares_optimum():
    B = np.array([[0.6, 0.1], [0.0, 0.5]])
    f = linear_model(B)
    z1 = np.array([0.2, -0.3])
    z_goal = np.array([0.5, 0.4])
    cfg = PlanConfig(horizon=1, iterations=300, optimizer="sgd", eta=1.0,
                     clamp_actions=False)
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
                     init="fixed", init_actions=np.zeros((3, 2)),
                     clamp_actions=False)
    pr = gbp(f, z, z, cfg, seed=0)
    assert pr.loss_trace[0] == 0.0
    assert pr.final_loss == 0.0


def test_gbp_single_iteration_returns_init():
    f = init_world_model(4, 2, seed=1)
    rng_init = generator(9, "gbp-init").standard_normal((3, 2))
    cfg = PlanConfig(horizon=3, iterations=1, optimizer="sgd", eta=0.5,
                     clamp_actions=False)
    pr = gbp(f, np.zeros(4), np.ones(4), cfg, seed=9)
    assert np.array_equal(pr.actions, rng_init)
    with pytest.raises(ValueError):
        PlanConfig(horizon=3, iterations=0)


def test_gbp_rejects_init_of_the_wrong_horizon():
    f = init_world_model(4, 2, seed=1)
    for init, arg in (("fixed", np.zeros((4, 2))),
                      ("initnet", lambda z1, z_goal: np.zeros((2, 2)))):
        cfg = PlanConfig(horizon=3, iterations=2, init=init, init_actions=arg)
        with pytest.raises(ValueError, match=f"{init} init shape"):
            gbp(f, np.zeros(4), np.ones(4), cfg, seed=0)


def test_gbp_adam_vanishing_eta_keeps_init():
    f = init_world_model(4, 2, seed=2)
    cfg = PlanConfig(horizon=3, iterations=20, optimizer="adam", eta=1e-12,
                     clamp_actions=False)
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
                     clamp_actions=True, a_max=0.05)
    pr = gbp(f, np.zeros(2), np.array([5.0, 5.0]), cfg, seed=0)
    assert np.all(np.abs(pr.actions) <= 0.05 + 1e-15)


def test_gbp_aborts_on_divergence():
    # grossly unstable step size: loss explodes to inf, gbp truncates
    f = linear_model(np.eye(2))
    cfg = PlanConfig(horizon=1, iterations=300, optimizer="sgd", eta=10.0,
                     clamp_actions=False)
    with np.errstate(over="ignore", invalid="ignore"):
        pr = gbp(f, np.zeros(2), np.ones(2), cfg, seed=0)
    assert pr.aborted
    assert pr.iterations < 300
    assert all(np.isfinite(x) for x in pr.loss_trace[:-1])


def test_cem_identity_model_quadratic():
    f = linear_model(np.eye(2))
    z1 = np.array([0.3, -0.2])
    z_goal = np.array([-0.4, 0.5])
    cfg = CemConfig(horizon=1, n_pop=300, k_elite=30, iterations=30)
    pr = cem(f, z1, z_goal, cfg, seed=0)
    assert np.linalg.norm(pr.actions[0] - (z_goal - z1)) < 1e-2
    assert len(pr.loss_trace) == 30


def test_cem_elites_and_full_selection():
    f = init_world_model(4, 2, seed=3)
    records = []
    cfg = CemConfig(horizon=3, n_pop=40, k_elite=8, iterations=4)
    cem(f, np.zeros(4), np.ones(4), cfg, seed=1, trace_hook=records.append)
    for rec in records:
        elite = set(rec["elite_idx"].tolist())
        others = [c for i, c in enumerate(rec["costs"]) if i not in elite]
        if others:
            assert rec["costs"][rec["elite_idx"]].max() <= min(others)
    # K = N_pop: refit mean equals the population mean
    records.clear()
    cfg_all = CemConfig(horizon=2, n_pop=16, k_elite=16, iterations=1)
    cem(f, np.zeros(4), np.ones(4), cfg_all, seed=2, trace_hook=records.append)
    rec = records[0]
    assert np.allclose(rec["mu"], rec["candidates"].mean(axis=0))


def test_cem_vanishing_sigma_keeps_mean():
    # degenerate sampling: every candidate collapses onto mu_0
    f = linear_model(np.eye(2))
    cfg = CemConfig(horizon=1, n_pop=20, k_elite=5, iterations=1, sigma0=1e-9)
    pr = cem(f, np.zeros(2), np.ones(2), cfg, seed=5)
    assert np.all(np.abs(pr.actions) < 1e-7)


def test_cem_rejects_an_unknown_cov_mode():
    with pytest.raises(ValueError, match="cov_mode"):
        CemConfig(cov_mode="diag")


def test_cem_diagonal_mode_runs():
    f = linear_model(np.eye(2))
    cfg = CemConfig(horizon=1, n_pop=50, k_elite=10, iterations=10,
                    cov_mode="diagonal")
    pr = cem(f, np.zeros(2), np.array([0.5, -0.5]), cfg, seed=3)
    assert np.linalg.norm(pr.actions[0] - np.array([0.5, -0.5])) < 5e-2


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
    with pytest.raises(ValueError, match="refine steps"):
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


def test_gradcem_reaches_threshold_in_fewer_iterations():
    # measured over seeds 0-5: gradcem's mean hits the 1e-2 loss threshold
    # at iteration 1, plain cem needs 2-3 under the matched population
    f = linear_model(np.eye(2))
    z1, z_goal = np.zeros(2), np.array([0.8, -0.6])
    cfg = CemConfig(horizon=1, n_pop=50, k_elite=10, iterations=8)

    def mu_costs(run):
        mus = []
        run(lambda rec: mus.append(rec["mu"]))
        return [float(np.sum((z1 + m.reshape(1, 2)[0] - z_goal) ** 2))
                for m in mus]

    def first_below(costs, tau=1e-2):
        return next((i + 1 for i, c in enumerate(costs) if c <= tau),
                    len(costs) + 1)

    for seed in (0, 3, 5):
        plain = mu_costs(lambda h: cem(f, z1, z_goal, cfg, seed, trace_hook=h))
        refined = mu_costs(lambda h: cem(
            f, z1, z_goal, replace(cfg, refine=RefineConfig(steps=2, eta=0.3)),
            seed, trace_hook=h))
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
                      init="fixed", init_actions=sample, clamp_actions=False,
                      return_best=False)
    ref = gbp(f, z1, z_goal, plan, seed=0)
    assert np.array_equal(pr.actions, ref.actions)


def test_plan_config_rejects_an_unknown_optimizer_or_init():
    with pytest.raises(ValueError, match="unknown optimizer 'adamw'"):
        PlanConfig(optimizer="adamw")
    with pytest.raises(ValueError, match="unknown init 'zeros'"):
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


def test_cem_costs_and_elites_match_one_at_a_time_scoring():
    f, z1, z_goal = _scoring_case()
    H, cfg = 4, CemConfig(horizon=4, n_pop=60, k_elite=6, iterations=3)
    records = []
    cem(f, z1, z_goal, cfg, seed=2, trace_hook=records.append)
    for rec in records:
        alone = np.array([final_cost(f, z1, c.reshape(H, 2), z_goal)
                          for c in rec["candidates"]])
        assert rel_err(rec["costs"], alone) <= 1e-12
        assert np.array_equal(rec["elite_idx"],
                              np.argsort(alone, kind="stable")[:cfg.k_elite])


def test_mppi_matches_one_at_a_time_scoring():
    f, z1, z_goal = _scoring_case()
    H, cfg = 4, MppiConfig(horizon=4, samples=32, sigma=0.5, temperature=0.5,
                           iterations=3)
    pr = mppi(f, z1, z_goal, cfg, seed=4)
    # MPPI with every sample scored on its own
    rng = generator(4, "mppi")
    nom, trace = np.zeros((H, 2)), []
    for _ in range(cfg.iterations):
        eps = cfg.sigma * rng.standard_normal((cfg.samples, H, 2))
        costs = np.array([final_cost(f, z1, nom + e, z_goal) for e in eps])
        w = np.exp(-(costs - costs.min()) / cfg.temperature)
        nom = nom + np.tensordot(w / w.sum(), eps, axes=1)
        trace.append(final_cost(f, z1, nom, z_goal))
    assert rel_err(pr.actions, nom) <= 1e-12
    assert rel_err(pr.loss_trace, trace) <= 1e-12


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
    assert evals == {"gbp_adam": 2500, "cem": 225025, "mppi": 1625}


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
    pr = gbp(f, np.zeros(2), np.ones(2), PlanConfig(horizon=3, iterations=7), seed=0)
    assert pr.model_evals == 3 * 7
    with np.errstate(over="ignore", invalid="ignore"):
        blown = gbp(f, np.zeros(2), np.ones(2), PlanConfig(
            horizon=1, iterations=300, optimizer="sgd", eta=10.0,
            clamp_actions=False), seed=0)
    assert blown.aborted
    assert blown.model_evals == len(blown.loss_trace)


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
    for planner in (PlanConfig(horizon=2, iterations=3, clamp_actions=False),
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

"""GBP's "wm-rollout" node (`worldmodel.rollout_nodes`) against the
per-step reference rollout of `reference_rollout`: the same loss and
action gradient bit for bit, the same whole plans, and the same numeric
guards."""

import math

import numpy as np
import pytest

import reference_rollout as ref
from conftest import linear_model
from wmplanlab import diffcore as dc
from wmplanlab import planners
from wmplanlab.planners import (GOAL_LOSSES, CemConfig, PlanConfig, RefineConfig,
                                cem, gbp)
from wmplanlab.rng import generator
from wmplanlab.worldmodel import (RolloutWorkspace, _float32, _rollout_loss,
                                  init_world_model, rollout_model, rollout_nodes)

SHAPES = {"tiny": (8, (16, 16), 5), "preset": (64, (128, 128), 25),  # d_z, hidden, H
          "no-hidden": (8, (), 4), "one-hidden": (8, (16,), 5),
          "three-hidden": (8, (16, 16, 16), 5)}


@pytest.fixture
def reference(monkeypatch):
    """Call to make `planners.gbp` build the per-step reference graph."""
    return lambda: monkeypatch.setattr(planners, "rollout_nodes", ref.rollout_nodes)


def _problem(shape, seed=0):
    d_z, hidden, H = SHAPES[shape]
    f = init_world_model(d_z, 2, hidden=hidden, seed=seed)
    rng = generator(seed, "rollout-node", shape)
    return f, H, rng.standard_normal(d_z), rng.standard_normal(d_z), rng


def _value_and_grad(build, f, z1, acts, z_goal, weights):
    tape = dc.Tape()
    a = tape.leaf(acts)
    loss = build(RolloutWorkspace(f, z1, z_goal, weights, len(acts)), a)
    (g,) = dc.grad(loss, [a])
    return loss.value, g


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("residual", [True])  # the one model; the cases keep their ids
@pytest.mark.parametrize("loss", GOAL_LOSSES)
def test_node_value_and_action_gradient_equal_the_reference(shape, residual, loss):
    f, H, z1, z_goal, rng = _problem(shape)
    acts = rng.standard_normal((H, 2))
    weights = GOAL_LOSSES[loss](H)
    got = _value_and_grad(rollout_nodes, f, z1, acts, z_goal, weights)
    want = _value_and_grad(ref.rollout_nodes, f, z1, acts, z_goal, weights)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)



@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_the_workspace_latents_equal_rollout_models(shape, dtype):
    # the forward that GBP runs on its workspace and the one `rollout_model`
    # runs for one sequence give the same latents z_2 .. z_{H+1}
    f, H, z1, z_goal, rng = _problem(shape)
    f = f if dtype == np.float64 else _float32(f)
    acts = rng.standard_normal((H, 2))
    work = RolloutWorkspace(f, z1, z_goal.astype(dtype), None, H)
    _rollout_loss(work, acts)
    assert work.zs.dtype == dtype
    assert np.array_equal(work.zs[1:], rollout_model(f, z1, acts))


@pytest.mark.parametrize("loss", GOAL_LOSSES)
def test_a_nodes_backward_after_a_later_forward_on_its_workspace_raises(loss):
    # the rollouts of a workspace share its buffers, so only the node of its
    # last forward can take its gradient, and the one that can is unharmed
    f, H, z1, z_goal, rng = _problem("tiny")
    weights = GOAL_LOSSES[loss](H)
    first, second = rng.standard_normal((2, H, 2))
    work = RolloutWorkspace(f, z1, z_goal, weights, H)
    tape = dc.Tape()
    a1, a2 = tape.leaf(first), tape.leaf(second)
    stale = rollout_nodes(work, a1)
    fresh = rollout_nodes(work, a2)
    with pytest.raises(RuntimeError, match="stale 'wm-rollout' node"):
        dc.grad(stale, [a1])
    got = (fresh.value, *dc.grad(fresh, [a2]))
    want = _value_and_grad(rollout_nodes, f, z1, second, z_goal, weights)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))

def _same_plan(got, want):
    assert got.loss_trace == want.loss_trace
    assert got.final_loss == want.final_loss
    assert (got.iterations, got.aborted, got.model_evals) == \
        (want.iterations, want.aborted, want.model_evals)
    assert np.array_equal(got.actions, want.actions)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("optimizer, eta", [("sgd", 0.05), ("adam", 0.2)])
@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("loss", GOAL_LOSSES)
def test_gbp_plans_equal_the_reference(reference, shape, optimizer, eta, clamp, loss):
    f, H, z1, z_goal, _ = _problem(shape, seed=1)
    cfg = PlanConfig(horizon=H, iterations=8, optimizer=optimizer, eta=eta,
                     loss=loss, a_max=0.5 if clamp else math.inf, return_best=False)
    got = gbp(f, z1, z_goal, cfg, seed=2)
    assert got.model_evals == H * cfg.iterations  # no best iterate to rescore
    reference()
    _same_plan(got, gbp(f, z1, z_goal, cfg, seed=2))


def test_gradcem_plans_equal_the_reference(reference):
    f, H, z1, z_goal, _ = _problem("tiny", seed=3)
    cfg = CemConfig(horizon=H, n_pop=12, k_elite=3, iterations=3,
                    refine=RefineConfig(2, 0.3))
    got = cem(f, z1, z_goal, cfg, seed=4)
    reference()
    _same_plan(got, cem(f, z1, z_goal, cfg, seed=4))


def test_a_gbp_plan_records_two_nodes_per_iteration(monkeypatch):
    # one tape per plan: the start latent is an array, not a node, and each
    # iteration adds its action leaf and its "wm-rollout" node
    tapes = []

    class RecordedTape(dc.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(dc, "Tape", RecordedTape)
    f, H, z1, z_goal, _ = _problem("tiny")
    for iterations in (1, 3):
        gbp(f, z1, z_goal, PlanConfig(horizon=H, iterations=iterations), seed=0)
    assert [tape.count for tape in tapes] == [2 * 1, 2 * 3]


def test_a_nonfinite_latent_aborts_the_plan_on_the_same_iteration(reference):
    # z_2 = 1e308 is finite, z_3 = 2e308 is not: the first rollout fails at
    # its second step, before any loss is recorded
    f = linear_model(1e308 * np.eye(2))
    acts = np.array([[1.0, 0.0], [1.0, 0.0]])
    cfg = PlanConfig(horizon=2, iterations=5, init_actions=acts)
    with np.errstate(over="ignore", invalid="ignore"):
        tape = dc.Tape()
        with pytest.raises(dc.NumericFailure, match="non-finite latent at rollout step 2"):
            rollout_nodes(RolloutWorkspace(f, np.zeros(2), np.ones(2), None, 2),
                          tape.leaf(acts))
        got = gbp(f, np.zeros(2), np.ones(2), cfg, seed=0)
        reference()
        want = gbp(f, np.zeros(2), np.ones(2), cfg, seed=0)
    assert got.aborted and got.iterations == 0 and got.loss_trace == []
    _same_plan(got, want)


def test_a_nonfinite_latent_before_the_last_step_is_named_by_its_step(reference):
    # at H = 5 the latents z_3 .. z_6 are all non-finite: the node's one
    # check after the loop must name the first of them, step 2, not the last
    f = linear_model(1e308 * np.eye(2))
    acts = np.tile([1.0, 0.0], (5, 1))
    cfg = PlanConfig(horizon=5, iterations=5, init_actions=acts)
    with np.errstate(over="ignore", invalid="ignore"):
        for build in (rollout_nodes, ref.rollout_nodes):
            tape = dc.Tape()
            with pytest.raises(dc.NumericFailure,
                               match="non-finite latent at rollout step 2$"):
                build(RolloutWorkspace(f, np.zeros(2), np.ones(2), None, 5),
                      tape.leaf(acts))
        got = gbp(f, np.zeros(2), np.ones(2), cfg, seed=0)
        reference()
        want = gbp(f, np.zeros(2), np.ones(2), cfg, seed=0)
    assert got.aborted and got.iterations == 0 and got.loss_trace == []
    _same_plan(got, want)


def _saturated_model(big=1e200, huge=1.7e308):
    """A finite forward whose backward overflows: the saturated tanh of the
    second layer has derivative 0 and meets an infinite incoming gradient.
    The output weights cancel on the saturated units, so the latents and
    the loss stay finite and the plan reaches its backward sweep. The
    defaults overflow float64; GBP differentiates a float32 copy, which
    `big` 1e30 and `huge` 3e38 overflow in its backward alone."""
    f = init_world_model(2, 2, hidden=(2, 2), seed=0)
    f.weights[2] = np.full((2, 2), big)
    f.weights[4] = np.array([[huge, huge], [-huge, -huge]])
    return f


def test_a_nonfinite_backward_sweep_aborts_the_plan_like_the_reference(reference):
    f = _saturated_model()
    z1, z_goal = np.array([0.1, 0.2]), np.full(2, -5.0)
    cfg = PlanConfig(horizon=3, iterations=5, optimizer="adam", eta=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        tape = dc.Tape()
        a = tape.leaf(np.full((3, 2), 0.3))
        loss = rollout_nodes(RolloutWorkspace(f, z1, z_goal, None, 3), a)
        assert np.isfinite(loss.value)
        with pytest.raises(dc.NumericFailure, match="op 'wm-rollout', step 2"):
            dc.grad(loss, [a])
        f = _saturated_model(1e30, 3e38)
        got = gbp(f, z1, z_goal, cfg, seed=0)
        reference()
        want = gbp(f, z1, z_goal, cfg, seed=0)
    assert got.aborted and got.iterations == 1 and np.isfinite(got.loss_trace[0])
    _same_plan(got, want)


def test_a_nonfinite_goal_is_a_value_error(monkeypatch):
    # gbp checks the goal (and the start latent) once, before any rollout;
    # `rollout_nodes` takes the goal as given
    f, H, z1, _, _ = _problem("tiny")
    rollouts = []
    monkeypatch.setattr(planners, "rollout_nodes",
                        lambda *args: rollouts.append(args) or rollout_nodes(*args))
    for start, goal in ((z1, np.full(len(z1), np.nan)), (np.full(len(z1), np.inf), z1)):
        with pytest.raises(ValueError, match="finite"):
            gbp(f, start, goal, PlanConfig(horizon=H, iterations=2), seed=0)
    assert rollouts == []

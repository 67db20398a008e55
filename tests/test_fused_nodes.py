"""The lab's gradients against the unfused tape chains of `chain_ops`: the
"wm-step" node, GBP's "wm-rollout" node through the per-step reference
rollout of `reference_rollout`, its "sq-dist" loss, and the direct kernel
calls of `worldmodel.step_loss_grad` (training, the attack), each equal
to the chain bit for bit. Also the work each caller asks of
`worldmodel.mlp_backward`, which callers build a tape, and tape lifetime."""

import gc
import weakref

import numpy as np
import pytest

import chain_ops as co
import reference_rollout as ref
from wmplanlab import diffcore as dc
from wmplanlab import envs, finetune, planners, worldmodel
from wmplanlab.encoder import encode_dataset, make_random_fourier
from wmplanlab.finetune import PerturbationConfig, adversarial_wm
from wmplanlab.rng import generator
from wmplanlab.worldmodel import (WorldModel, init_world_model, rollout_nodes,
                                  step_loss_grad)


def chain_forward_nodes(self, z, a):
    """`WorldModel.forward_nodes` as the chain, with its own weight nodes."""
    return co.chain_step(self, co.lift_params(z.tape, self.weights), z, a)


def _step_grads(f, forward, z0, a0, zn):
    tape = dc.Tape()
    z, a = tape.leaf(z0), tape.leaf(a0)
    pred = forward(f, z, a)
    loss = co.sum_(co.square(co.sub(pred, tape.constant(zn))))
    return [pred.value, loss.value] + dc.grad(loss, [z, a])


@pytest.mark.parametrize("residual", [True])  # the one model; the cases keep their ids
@pytest.mark.parametrize("batch", [None, 7])
def test_wm_step_gradients_equal_the_chain(residual, batch):
    f = init_world_model(6, 2, hidden=(16, 12), seed=4)
    rng = generator(4, "fused", residual, batch or 0)
    lead = () if batch is None else (batch,)
    z0, a0, zn = (rng.standard_normal(lead + (d,)) for d in (6, 2, 6))
    fused = _step_grads(f, WorldModel.forward_nodes, z0, a0, zn)
    chain = _step_grads(f, chain_forward_nodes, z0, a0, zn)
    assert len(fused) == 2 + 2
    for got, want in zip(fused, chain):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("residual", [True])  # the one model; the cases keep their ids
@pytest.mark.parametrize("dx, params, batch", [
    (True, False, None), (True, False, 7), (False, True, 7), (True, True, 7)])
def test_step_loss_grad_equals_the_chain(residual, batch, dx, params):
    # weight gradients are taken on batches only, into arrays the caller
    # gives; NaN-filled ones show that every entry is written
    f = init_world_model(6, 2, hidden=(16, 12), seed=4)
    rng = generator(4, "step-loss", residual, batch or 0)
    lead = () if batch is None else (batch,)
    Z, A, ZN = (rng.standard_normal(lead + (d,)) for d in (6, 2, 6))
    scale = 1.0 / (batch or 1)
    outs = [[np.full_like(w, np.nan) for w in f.weights] if params else None
            for _ in range(2)]
    got = step_loss_grad(f, Z, A, ZN, scale, dx, outs[0])
    want = co.chain_step_loss_grad(f, Z, A, ZN, scale, dx, outs[1])
    assert len(got) == len(want) == 3
    assert got[0] == want[0]
    if not dx:
        assert got[1:] == want[1:] == (None, None)
    pairs = (list(zip(got[1:], want[1:])) if dx else []) + (
        list(zip(*outs)) if params else [])
    for g, w in pairs:
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("dx, params, batch", [
    (True, False, None), (True, False, 7), (False, True, 7), (True, True, 7)])
def test_a_float32_step_loss_grad_equals_the_float32_chain(batch, dx, params):
    # the attack's call: a float32 copy of the model, float64 inputs cast
    # once; the scale 1/7 is no float32 number, and the chain rounds it as
    # the fused call does
    f = worldmodel._float32(init_world_model(6, 2, hidden=(16, 12), seed=4))
    rng = generator(4, "step-loss-float32", batch or 0)
    lead = () if batch is None else (batch,)
    Z, A, ZN = (rng.standard_normal(lead + (d,)) for d in (6, 2, 6))
    scale = 1.0 / (batch or 1)
    outs = [[np.full_like(w, np.nan) for w in f.weights] if params else None
            for _ in range(2)]
    got = step_loss_grad(f, Z, A, ZN, scale, dx, outs[0])
    want = co.chain_step_loss_grad(f, Z, A, ZN, scale, dx, outs[1])
    assert got[0] == want[0]
    pairs = (list(zip(got[1:], want[1:])) if dx else []) + (
        list(zip(*outs)) if params else [])
    for g, w in pairs:
        assert g.dtype == w.dtype == np.float32
        assert np.array_equal(g, w)


@pytest.mark.parametrize("loss", ["final", "late-heavy"])
def test_wm_step_rollout_gradients_equal_the_chain(loss):
    # with a weighted goal loss every latent also feeds the loss, so z's
    # gradient sums three contributions whose order the fused node keeps
    H = 5
    f = init_world_model(8, 2, hidden=(16, 16), seed=5)
    rng = generator(5, "fused-rollout")
    z1, z_goal = rng.standard_normal(8), rng.standard_normal(8)
    acts = rng.standard_normal((H, 2))
    weights = planners.GOAL_LOSSES[loss](H)

    def run(build):
        tape = dc.Tape()
        a = tape.leaf(acts)
        return dc.grad(build(f, z1, a, z_goal, weights), [a])

    fused = run(rollout_nodes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WorldModel, "forward_nodes", chain_forward_nodes)
        chain = run(ref.rollout_nodes)
    assert np.array_equal(np.stack(fused), np.stack(chain))


@pytest.mark.parametrize("wrt", ["input", "params"])
def test_nonfinite_fused_backward_raises_numeric_failure(wrt):
    # a finite forward whose backward overflows: the saturated tanh of the
    # second layer has derivative 0 and meets an infinite incoming gradient,
    # in the input gradient on GBP's tape or the weight gradients of a
    # training step. A training step computes in float32, so its weights
    # are ones that float32 holds and its backward overflows float32
    big = 1e200 if wrt == "input" else 1e30
    f = init_world_model(2, 2, hidden=(2, 2), seed=0)
    f.weights[2] = np.full((2, 2), big)
    f.weights[4] = np.full((2, 2), big)
    z, a, zn = np.array([[0.1, 0.2]]), np.array([[0.3, -0.2]]), np.zeros((1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isfinite(f.forward(z, a)[0]))
        if wrt == "input":
            tape = dc.Tape()
            a_node = tape.leaf(a)
            loss = rollout_nodes(f, z[0], a_node, zn[0], None)
            with pytest.raises(dc.NumericFailure, match="op"):
                dc.grad(loss, [a_node])
        else:
            # the weight gradients are written unchecked; the step checks them
            f32 = worldmodel._float32(f)
            grads = [np.empty_like(w) for w in f32.weights]
            step_loss_grad(f32, z, a, zn, 1.0, False, grads)
            assert not all(np.isfinite(g).all() for g in grads)
            opt = worldmodel.FlatAdam(f)
            with pytest.raises(dc.NumericFailure, match="backward pass"):
                worldmodel.supervised_step(f, opt, z, a, zn, 1e-3)


@pytest.mark.parametrize("where", ["input", "target"])
def test_a_nonfinite_input_or_target_is_a_value_error(where):
    f = init_world_model(2, 2, hidden=(4,), seed=0)
    z, a, zn = np.array([[0.1, 0.2]]), np.array([[0.3, -0.2]]), np.zeros((1, 2))
    if where == "input":
        a = np.array([[np.nan, 0.0]])
    else:
        zn = np.array([[0.0, np.inf]])
    grads = [np.empty_like(w) for w in f.weights]
    opt = worldmodel.FlatAdam(f)
    for dx, params in ((True, None), (False, grads)):
        with pytest.raises(ValueError, match="finite"):
            step_loss_grad(f, z, a, zn, 1.0, dx, params)
    with pytest.raises(ValueError, match="finite"):
        worldmodel.supervised_step(f, opt, z, a, zn, 1e-3)


def _sq_dist_cases(rng):
    """(xs, targets, weights, scale) for the three forms the lab uses."""
    H, N = 5, 7
    w = np.exp2(np.arange(2, H + 2, dtype=np.float64))
    return {
        "final": ([rng.standard_normal(6)], [rng.standard_normal(6)], [1.0], 1.0),
        "weighted": (list(rng.standard_normal((H, 6))),
                     [rng.standard_normal(6)] * H, w / w.sum(), 1.0 / H),
        "batched": ([rng.standard_normal((N, 6))], [rng.standard_normal((N, 6))],
                    [1.0], 1.0 / N),
    }


@pytest.mark.parametrize("form", ["final", "weighted", "batched"])
def test_sq_dist_equals_the_chain(form):
    xs, targets, weights, scale = _sq_dist_cases(generator(8, "sq-dist"))[form]

    def run(build):
        tape = dc.Tape()
        nodes = [tape.leaf(x) for x in xs]
        loss = build(nodes, targets, weights, scale)
        return [loss.value] + dc.grad(loss, nodes)

    fused, chain = run(ref.sq_dist), run(co.chain_sq_dist)
    assert len(fused) == 1 + len(xs)
    for got, want in zip(fused, chain):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("loss", ["late-heavy", "early-heavy"])
def test_gbp_weighted_plans_equal_the_chain(loss, optimizer):
    H = 5
    f = init_world_model(8, 2, hidden=(16, 16), seed=6)
    rng = generator(6, "gbp-chain")
    z1, z_goal = rng.standard_normal(8), rng.standard_normal(8)
    cfg = planners.PlanConfig(horizon=H, iterations=12, optimizer=optimizer,
                              eta=0.1, loss=loss)
    fused = planners.gbp(f, z1, z_goal, cfg, seed=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planners, "rollout_nodes", ref.rollout_nodes)
        mp.setattr(ref, "sq_dist", co.chain_sq_dist)
        chain = planners.gbp(f, z1, z_goal, cfg, seed=3)
    assert fused.loss_trace == chain.loss_trace
    assert fused.final_loss == chain.final_loss
    assert np.array_equal(fused.actions, chain.actions)


def test_adversarial_wm_weights_equal_the_chain(wall_spec):
    raw = envs.generate_dataset(wall_spec, 6, 8, "goal-seeking-noisy", 1)
    data = encode_dataset(make_random_fourier(2, d_z=8, seed=1), raw)
    f = init_world_model(8, 2, hidden=(16,), seed=7)
    pcfg = PerturbationConfig()

    def run():
        res = adversarial_wm(f, data, pcfg, epochs=2, batch_size=4, lr=1e-3,
                             seed=2)
        return res.batch_losses, res.model.weights

    fused_losses, fused_weights = run()
    attacked = []  # the dtype of each model the attack's chain differentiates

    def chain(f, *args):
        attacked.append(f.weights[0].dtype)
        return co.chain_step_loss_grad(f, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(worldmodel, "step_loss_grad", co.chain_step_loss_grad)
        mp.setattr(finetune, "step_loss_grad", chain)
        chain_losses, chain_weights = run()
    assert attacked == [np.float32] * 4  # one attack per batch
    assert fused_losses == chain_losses
    for got, want in zip(fused_weights, chain_weights):
        assert np.array_equal(got, want)


def test_supervised_step_losses_and_weights_equal_the_chain():
    f = init_world_model(8, 2, hidden=(16, 12), seed=9)
    rng = generator(9, "supervised-chain")
    batches = [tuple(rng.standard_normal((n, d)) for d in (8, 2, 8))
               for n in (5, 3, 7)]

    def run():
        model = f.clone()
        opt = worldmodel.FlatAdam(model)
        losses = [worldmodel.supervised_step(model, opt, Z, A, ZN, 1e-2)
                  for Z, A, ZN in batches]
        return losses, model.weights

    fused_losses, fused_weights = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(worldmodel, "step_loss_grad", co.chain_step_loss_grad)
        chain_losses, chain_weights = run()
    assert fused_losses == chain_losses
    for got, want in zip(fused_weights, chain_weights):
        assert np.array_equal(got, want)


@pytest.fixture
def backward_asks(monkeypatch):
    """Whether each `worldmodel.mlp_backward` call asks for the input gradient
    and for the weight gradients, as (dx, params given)."""
    asks = []
    real = worldmodel.mlp_backward

    def spy(weights, inputs, g, dx, params):
        asks.append((dx, params is not None))
        return real(weights, inputs, g, dx, params)

    monkeypatch.setattr(worldmodel, "mlp_backward", spy)
    return asks


def test_gbp_never_asks_for_parameter_gradients(backward_asks):
    # GBP's sweep computes only input gradients, inline, and never calls
    # `mlp_backward`, so no weight gradient can reach a plan
    f = init_world_model(6, 2, hidden=(8,), seed=2)
    rng = generator(2, "asks")
    cfg = planners.PlanConfig(horizon=4, iterations=3, optimizer="adam", eta=0.1)
    planners.gbp(f, rng.standard_normal(6), rng.standard_normal(6), cfg, seed=0)
    assert backward_asks == []


def test_supervised_step_never_asks_for_the_input_gradient(backward_asks):
    f = init_world_model(6, 2, hidden=(8,), seed=1)
    rng = generator(1, "asks")
    opt = worldmodel.FlatAdam(f)
    worldmodel.supervised_step(f, opt, rng.standard_normal((5, 6)),
                               rng.standard_normal((5, 2)),
                               rng.standard_normal((5, 6)), 1e-3)
    assert backward_asks == [(False, True)]


def test_attack_never_asks_for_parameter_gradients(backward_asks):
    f = init_world_model(6, 2, hidden=(8,), seed=3)
    rng = generator(3, "asks")
    z, a, zn = rng.standard_normal(6), rng.standard_normal(2), rng.standard_normal(6)
    finetune._attack_deltas(f, z[None], a[None], zn[None], 0.1, 0.1,
                            generator(0, "attack-init"))
    assert backward_asks == [(True, False)]


@pytest.fixture
def tape_refs(monkeypatch):
    """Weak references to every tape created while the test runs, with the
    cyclic garbage collector off, so only reference counting frees them."""
    refs = []

    class RecordedTape(dc.Tape):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(dc, "Tape", RecordedTape)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if was_enabled:
            gc.enable()


def test_only_gbp_builds_a_tape(tape_refs):
    f = init_world_model(6, 2, hidden=(8,), seed=1)
    rng = generator(1, "no-tape")
    Z, A, ZN = (rng.standard_normal((5, d)) for d in (6, 2, 6))
    opt = worldmodel.FlatAdam(f)
    worldmodel.supervised_step(f, opt, Z, A, ZN, 1e-3)
    finetune._attack_deltas(f, Z, A, ZN, 0.1, 0.1, generator(1, "attack"))
    assert tape_refs == []
    cfg = planners.PlanConfig(horizon=4, iterations=3, optimizer="adam", eta=0.1)
    planners.gbp(f, rng.standard_normal(6), rng.standard_normal(6), cfg, seed=0)
    assert len(tape_refs) == 1  # one per plan


def test_gbp_frees_its_tapes(tape_refs):
    f = init_world_model(6, 2, hidden=(8,), seed=2)
    rng = generator(2, "free")
    cfg = planners.PlanConfig(horizon=4, iterations=3, optimizer="adam", eta=0.1)
    planners.gbp(f, rng.standard_normal(6), rng.standard_normal(6), cfg, seed=0)
    assert len(tape_refs) == 1
    assert all(ref() is None for ref in tape_refs)

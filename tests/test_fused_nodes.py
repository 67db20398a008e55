"""The fused tape nodes against the unfused chains of `chain_ops` they
replace: "wm-step" and "mlp" against concat, affine, tanh and add, and the
"sq-dist" losses against sub, square, sum, mul and add. Also the work each
caller asks of `nets.mlp_backward`, and tape lifetime."""

import gc
import weakref

import numpy as np
import pytest

import chain_ops as co
from wmplanlab import diffcore as dc
from wmplanlab import envs, initnet, nets, planners, worldmodel
from wmplanlab.encoder import encode_dataset, make_identity, make_random_fourier
from wmplanlab.finetune import PerturbationConfig, adversarial_wm, attack_perturb
from wmplanlab.rng import generator
from wmplanlab.worldmodel import WorldModel, init_world_model, rollout_nodes


def chain_mlp(params, x):
    """Reference: the MLP as one affine node per layer and one tanh node per
    hidden layer."""
    n_layers = len(params) // 2
    for i in range(n_layers):
        x = co.affine(x, params[2 * i], params[2 * i + 1])
        if i < n_layers - 1:
            x = co.tanh(x)
    return x


def chain_step(self, params, z, a):
    """Reference: one world-model transition as concat -> MLP chain -> add."""
    x = co.concat([z, a], axis=z.value.ndim - 1)
    out = chain_mlp(params, x)
    return co.add(z, out) if self.residual else out


def chain_sq_dist(xs, targets, weights, scale=1.0):
    """Reference: `dc.sq_dist` as a sum over i of
    mul(sum_(square(sub(x_i, target_i))), w_i), times the scale."""
    tape = xs[0].tape
    total = None
    for x, t, w in zip(xs, targets, weights, strict=True):
        term = co.mul(co.sum_(co.square(co.sub(x, tape.constant(t)))),
                      tape.constant(w))
        total = term if total is None else co.add(total, term)
    return co.mul(total, tape.constant(scale))


def chain_bounded_sq_dist(out, target, a_max):
    """Reference: the init net's loss, ||a_max * tanh(out) - target||^2."""
    tape = out.tape
    pred = co.mul(co.tanh(out), tape.constant(a_max))
    return co.sum_(co.square(co.sub(pred, tape.constant(target))))


def _step_grads(f, forward, z0, a0, zn):
    tape = dc.Tape()
    params = nets.lift_params(tape, f.weights)
    z, a = tape.leaf(z0), tape.leaf(a0)
    pred = forward(f, params, z, a)
    loss = co.sum_(co.square(co.sub(pred, tape.constant(zn))))
    return [pred.value, loss.value] + dc.grad(loss, [z, a, *params])


@pytest.mark.parametrize("residual", [True, False])
@pytest.mark.parametrize("batch", [None, 7])
def test_wm_step_gradients_equal_the_chain(residual, batch):
    f = init_world_model(6, 2, hidden=(16, 12), residual=residual, seed=4)
    rng = generator(4, "fused", residual, batch or 0)
    lead = () if batch is None else (batch,)
    z0, a0, zn = (rng.standard_normal(lead + (d,)) for d in (6, 2, 6))
    fused = _step_grads(f, WorldModel.forward_nodes, z0, a0, zn)
    chain = _step_grads(f, chain_step, z0, a0, zn)
    assert len(fused) == 2 + 2 + len(f.weights)
    for got, want in zip(fused, chain):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("loss", ["final", "late-heavy"])
def test_wm_step_rollout_gradients_equal_the_chain(loss):
    # with a weighted goal loss every latent also feeds the loss, so z's
    # gradient sums three contributions whose order the fused node keeps
    H = 5
    f = init_world_model(8, 2, hidden=(16, 16), seed=5)
    rng = generator(5, "fused-rollout")
    z1, z_goal = rng.standard_normal(8), rng.standard_normal(8)
    acts = rng.standard_normal((H, 2))
    spec = planners.GoalLossSpec() if loss == "final" else planners.wgl_late_heavy(H)

    def run():
        tape = dc.Tape()
        params = nets.lift_params(tape, f.weights)
        a_nodes = tape.leaves(acts)
        zs = rollout_nodes(f, params, tape.constant(z1), a_nodes)
        return dc.grad(planners.goal_loss(spec, zs, z_goal), a_nodes)

    fused = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WorldModel, "forward_nodes", chain_step)
        chain = run()
    assert np.array_equal(np.stack(fused), np.stack(chain))


def test_train_initnet_losses_equal_the_chain(wall_spec):
    raw = envs.generate_dataset(wall_spec, 6, 8, "random", 0)
    data = encode_dataset(make_identity(2), raw)

    def run():
        res = initnet.train_initnet(data, H=3, iterations=30, lr=0.2, seed=0)
        return res.losses, res.net.weights

    fused_losses, fused_weights = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "mlp_forward_nodes", chain_mlp)
        mp.setattr(initnet, "_bounded_sq_dist", chain_bounded_sq_dist)
        chain_losses, chain_weights = run()
    assert fused_losses == chain_losses
    for got, want in zip(fused_weights, chain_weights):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("wrt", ["input", "params"])
def test_nonfinite_fused_backward_raises_numeric_failure(wrt):
    # a finite forward whose backward overflows: the saturated tanh of the
    # second layer has derivative 0 and meets an infinite incoming gradient
    f = init_world_model(2, 2, hidden=(2, 2), seed=0)
    f.weights[2] = np.full((2, 2), 1e200)
    f.weights[4] = np.full((2, 2), 1e200)
    tape = dc.Tape()
    params = nets.lift_params(tape, f.weights)
    a = tape.leaf([0.3, -0.2])
    with np.errstate(over="ignore", invalid="ignore"):
        pred = f.forward_nodes(params, tape.constant([0.1, 0.2]), a)
        assert np.all(np.isfinite(pred.value))
        loss = dc.sq_dist([pred], [np.zeros(2)], [1.0])
        with pytest.raises(dc.NumericFailure, match="op"):
            dc.grad(loss, [a] if wrt == "input" else params)


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

    fused, chain = run(dc.sq_dist), run(chain_sq_dist)
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
    spec = (planners.wgl_late_heavy if loss == "late-heavy"
            else planners.wgl_early_heavy)(H)
    cfg = planners.PlanConfig(horizon=H, iterations=12, optimizer=optimizer,
                              eta=0.1, loss=spec, seed=3)
    fused = planners.gbp(f, z1, z_goal, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dc, "sq_dist", chain_sq_dist)
        chain = planners.gbp(f, z1, z_goal, cfg)
    assert fused.loss_trace == chain.loss_trace
    assert fused.final_loss == chain.final_loss
    assert np.array_equal(fused.actions, chain.actions)


@pytest.mark.parametrize("attack", ["fgsm", "pgd"])
def test_adversarial_wm_weights_equal_the_chain(wall_spec, attack):
    raw = envs.generate_dataset(wall_spec, 6, 8, "goal-seeking-noisy", 1)
    data = encode_dataset(make_random_fourier(2, d_z=8, seed=1), raw)
    f = init_world_model(8, 2, hidden=(16,), seed=7)
    pcfg = PerturbationConfig(attack=attack, pgd_steps=3)

    def run():
        res = adversarial_wm(f, data, pcfg, epochs=2, batch_size=4, lr=1e-3,
                             seed=2)
        return res.batch_losses, res.model.weights

    fused_losses, fused_weights = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dc, "sq_dist", chain_sq_dist)
        chain_losses, chain_weights = run()
    assert fused_losses == chain_losses
    for got, want in zip(fused_weights, chain_weights):
        assert np.array_equal(got, want)


@pytest.fixture
def backward_asks(monkeypatch):
    """The (dx, params) flags of every `nets.mlp_backward` call."""
    asks = []
    real = nets.mlp_backward

    def spy(weights, inputs, g, dx, params):
        asks.append((dx, params))
        return real(weights, inputs, g, dx, params)

    monkeypatch.setattr(nets, "mlp_backward", spy)
    return asks


def test_gbp_never_asks_for_parameter_gradients(backward_asks):
    f = init_world_model(6, 2, hidden=(8,), seed=2)
    rng = generator(2, "asks")
    cfg = planners.PlanConfig(horizon=4, iterations=3, optimizer="adam", eta=0.1)
    planners.gbp(f, rng.standard_normal(6), rng.standard_normal(6), cfg)
    assert backward_asks == [(True, False)] * (3 * 4)


def test_supervised_step_never_asks_for_the_input_gradient(backward_asks):
    f = init_world_model(6, 2, hidden=(8,), seed=1)
    rng = generator(1, "asks")
    opt = [dc.AdamState.zeros(w.shape) for w in f.weights]
    worldmodel.supervised_step(f, opt, rng.standard_normal((5, 6)),
                               rng.standard_normal((5, 2)),
                               rng.standard_normal((5, 6)), 1e-3)
    assert backward_asks == [(False, True)]


def test_attack_never_asks_for_parameter_gradients(backward_asks):
    f = init_world_model(6, 2, hidden=(8,), seed=3)
    rng = generator(3, "asks")
    pcfg = PerturbationConfig(eps_a=0.1, eps_z=0.1, attack="pgd", pgd_steps=3)
    attack_perturb(f, rng.standard_normal(6), rng.standard_normal(2),
                   rng.standard_normal(6), pcfg)
    assert backward_asks == [(True, False)] * 3


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


def test_supervised_step_frees_its_tape(tape_refs):
    f = init_world_model(6, 2, hidden=(8,), seed=1)
    rng = generator(1, "free")
    opt = [dc.AdamState.zeros(w.shape) for w in f.weights]
    worldmodel.supervised_step(f, opt, rng.standard_normal((5, 6)),
                               rng.standard_normal((5, 2)),
                               rng.standard_normal((5, 6)), 1e-3)
    assert len(tape_refs) == 1
    assert tape_refs[0]() is None


def test_gbp_frees_its_tapes(tape_refs):
    f = init_world_model(6, 2, hidden=(8,), seed=2)
    rng = generator(2, "free")
    cfg = planners.PlanConfig(horizon=4, iterations=3, optimizer="adam", eta=0.1)
    planners.gbp(f, rng.standard_normal(6), rng.standard_normal(6), cfg)
    assert len(tape_refs) == 3
    assert all(ref() is None for ref in tape_refs)

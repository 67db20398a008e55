"""The one training loop, `worldmodel.fit`, on one flat weight vector
(`worldmodel.FlatAdam`): at the preset model widths and batch sizes it
matches the per-tensor reference of `reference_training`, with float32
Adam moments, bit for bit; its float32 step stays within a stated bound of
the float64 gradient, and its float32 moments within stated bounds of
float64 moments over a run, while the master weights stay float64; and a
non-finite gradient, one too large for float32 moments, or a value beyond
float32's range stops a step before anything moves."""

import warnings

import numpy as np
import pytest

from reference_training import (trajectory_teacher_forcing,
                                 transition_teacher_forcing)
from wmplanlab import diffcore as dc
from wmplanlab import worldmodel
from wmplanlab.data import Dataset
from wmplanlab.finetune import (PerturbationConfig, _attack_deltas,
                                adversarial_wm, compute_radii)
from wmplanlab.planners import PlanConfig, gbp
from wmplanlab.rng import generator
from wmplanlab.worldmodel import (FlatAdam, fit, init_world_model, step_loss_grad,
                                  supervised_step, train_teacher_forcing)


def _preset_sized():
    """A model of the preset widths (d_z 64, hidden 128x128, d_a 2), and 97
    random trajectories of 49 transitions: the preset's trajectory length,
    with a short last batch at both batch sizes below."""
    rng = generator(25, "flat-fit")
    data = Dataset(rng.uniform(-1.0, 1.0, (97, 49, 2)),
                   latents=rng.standard_normal((97, 50, 64)))
    return init_world_model(64, 2, hidden=(128, 128), seed=25), data


def _teacher_forcing(f, data, moments=np.float32):
    # batch 64, as the preset trains
    got = train_teacher_forcing(f, data, epochs=1, batch_size=64, lr=1e-3, seed=3)
    return got, transition_teacher_forcing(f, data, epochs=1, batch_size=64,
                                           lr=1e-3, seed=3, moments=moments)


def _adversarial(f, data, moments=np.float32):
    # batches of 48 trajectories, 2352 rows, as the preset finetunes
    pcfg = PerturbationConfig()
    radii = []

    def perturb(model, step, batch, Z, A, ZN):
        if not radii:
            radii.extend(compute_radii(batch.actions, batch.latents,
                                       pcfg.lambda_a, pcfg.lambda_z))
        da, dz = _attack_deltas(model, Z, A, ZN, *radii, generator(4, "attack", step))
        return Z + dz, A + da

    got = adversarial_wm(f, data, pcfg, epochs=2, batch_size=48, lr=1e-4, seed=4)
    return got, trajectory_teacher_forcing(f, data, epochs=2, batch_size=48,
                                           lr=1e-4, seed=4, perturb=perturb,
                                           moments=moments)


# 4753 transitions in batches of 64; 97 trajectories in batches of 48, twice
@pytest.mark.parametrize("trainer, steps", [(_teacher_forcing, 75), (_adversarial, 6)],
                         ids=["teacher-forcing", "adversarial"])
def test_fit_equals_the_per_tensor_reference_at_preset_widths(trainer, steps):
    f, data = _preset_sized()
    arrays = list(f.weights)
    before = [w.tobytes() for w in f.weights]
    got, (want, losses) = trainer(f, data)
    assert got.batch_losses == losses
    assert len(losses) == steps
    for w, r in zip(got.model.weights, want.weights, strict=True):
        assert w.shape == r.shape
        assert np.array_equal(w, r)
    # the caller's model keeps its arrays and their bytes, shared with nothing
    assert all(w is a for w, a in zip(f.weights, arrays))
    assert [w.tobytes() for w in f.weights] == before
    assert not any(np.shares_memory(w, a) for w in got.model.weights for a in arrays)


# float32 Adam moments against float64 ones over a run at preset widths:
# the weights were 9.5e-8 apart by norm (relative) after the 75 teacher
# forcing steps and 6.4e-10 after the 6 adversarial ones, and every batch
# loss within 1.6e-7, when these bounds were set
MOMENT_WEIGHT_RTOL = 1e-6
MOMENT_LOSS_RTOL = 1e-6


@pytest.mark.parametrize("trainer", [_teacher_forcing, _adversarial],
                         ids=["teacher-forcing", "adversarial"])
def test_float32_moments_keep_to_float64_moments_at_preset_widths(trainer):
    f, data = _preset_sized()
    got, (want, losses) = trainer(f, data, moments=np.float64)
    flat = [np.concatenate([w.ravel() for w in m.weights]) for m in (got.model, want)]
    drift = np.linalg.norm(flat[0] - flat[1])
    assert drift <= MOMENT_WEIGHT_RTOL * np.linalg.norm(flat[1])
    assert len(got.batch_losses) == len(losses)
    for loss, ref in zip(got.batch_losses, losses):
        assert abs(loss - ref) <= MOMENT_LOSS_RTOL * ref


def test_gbp_steps_its_actions_from_float64_moments(monkeypatch):
    # only training keeps float32 moments; GBP's Adam is as it was
    seen = []
    real = dc.adam_step

    def spy(params, grads, state, eta):
        seen.append((params.dtype, grads.dtype, state.m.dtype, state.v.dtype))
        real(params, grads, state, eta)

    monkeypatch.setattr(dc, "adam_step", spy)
    f = init_world_model(4, 2, hidden=(8,), seed=5)
    cfg = PlanConfig(horizon=3, iterations=4, optimizer="adam", eta=0.1)
    gbp(f, np.zeros(4), np.ones(4), cfg, seed=0)
    assert seen == [(np.float64,) * 4] * 4


# the float32 step against the float64 gradient: 2.4e-7 by norm at both
# batch sizes, and the loss within 7e-8, when this bound was set
GRAD_RTOL = 1e-6


@pytest.mark.parametrize("n", [64, 2352], ids=["batch-64", "batch-2352"])
def test_the_float32_step_keeps_to_the_float64_gradient(n):
    # the preset's training batch, and its adversarial batch of 48
    # trajectories of 49 transitions
    f, _ = _preset_sized()
    rng = generator(n, "float32-step")
    Z, A, ZN = (rng.standard_normal((n, 64)), rng.uniform(-1.0, 1.0, (n, 2)),
                rng.standard_normal((n, 64)))
    grads = [np.empty_like(w) for w in f.weights]
    loss64, _, _ = step_loss_grad(f, Z, A, ZN, 1.0 / n, False, grads)
    g64 = np.concatenate([g.ravel() for g in grads])
    model = f.clone()
    opt = FlatAdam(model)
    loss = supervised_step(model, opt, Z, A, ZN, 1e-3)
    assert opt.grads32.size == 33344
    assert np.linalg.norm(opt.grads32 - g64) <= GRAD_RTOL * np.linalg.norm(g64)
    assert abs(loss - loss64) <= GRAD_RTOL * loss64
    # the master weights, which accumulate over a run, stay float64; the
    # gradient and Adam's moments, like what the step computes in, are float32
    assert opt.params.dtype == np.float64
    for a in (opt.grads32, opt.state.m, opt.state.v):
        assert a.dtype == np.float32
    assert all(w.dtype == np.float64 and w.base is opt.params for w in model.weights)
    assert opt.mirror.dtype == np.float32
    assert all(w.dtype == np.float32 for w in opt.model32.weights + opt.grad_views)


def test_fit_refreshes_one_float32_mirror_in_place(monkeypatch):
    # every step of a run computes with the one float32 model that the run's
    # FlatAdam made, whose weights are views of one vector, cast in place
    # from the master weights just before the step
    f, data = _preset_sized()
    made, seen = [], []

    class Recorded(FlatAdam):
        def __init__(self, model):
            super().__init__(model)
            made.append(self)

    real = worldmodel.step_loss_grad

    def spy(g, Z, A, ZN, scale, dx, params):
        opt = made[-1]
        seen.append((g, opt.mirror.ctypes.data, params[0].base))
        assert all(w.base is opt.mirror for w in g.weights)
        assert np.array_equal(opt.mirror, opt.params.astype(np.float32))
        return real(g, Z, A, ZN, scale, dx, params)

    monkeypatch.setattr(worldmodel, "FlatAdam", Recorded)
    monkeypatch.setattr(worldmodel, "step_loss_grad", spy)
    train_teacher_forcing(f, data, epochs=1, batch_size=64, lr=1e-3, seed=3)
    assert len(made) == 1 and len(seen) == 75
    opt = made[0]
    assert opt.mirror.size == 33344
    assert all(g is opt.model32 for g, _, _ in seen)
    assert {address for _, address, _ in seen} == {opt.mirror.ctypes.data}
    assert all(base is opt.grads32 for _, _, base in seen)


def _tiny_batch(seed):
    rng = generator(seed, "flat-guard")
    return tuple(rng.standard_normal((6, d)) for d in (4, 2, 4))


def test_a_nonfinite_gradient_raises_before_the_step_moves_anything():
    f = init_world_model(4, 2, hidden=(8,), seed=1)
    Z, A, ZN = _tiny_batch(1)
    opt = FlatAdam(f)
    for _ in range(2):
        supervised_step(f, opt, Z, A, ZN, 1e-3)
    f.weights[2][3, 1] = np.nan  # a poisoned weight, written through its view
    assert np.isnan(opt.params).sum() == 1
    before = [a.tobytes() for a in (opt.params, opt.state.m, opt.state.v)]
    with pytest.raises(dc.NumericFailure,
                       match="^NaN in the backward pass of a one-step loss$"):
        supervised_step(f, opt, Z, A, ZN, 1e-3)
    assert [a.tobytes() for a in (opt.params, opt.state.m, opt.state.v)] == before
    assert opt.state.t == 2
    assert all(np.shares_memory(w, opt.params) for w in f.weights)


def test_fit_packs_a_model_and_stops_at_a_diverged_loss(nan_on_call):
    f = init_world_model(4, 2, hidden=(8,), seed=2)
    batches = [(k // 2, *_tiny_batch(k)) for k in range(4)]
    model = f.clone()
    arrays = list(model.weights)
    clean = fit(model, iter(batches), 1e-3, "probe")
    # fit re-seats the weights as views of one vector and leaves the old ones
    assert clean.model is model
    flat = model.weights[0].base
    assert all(w.base is flat for w in model.weights)
    assert flat.size == sum(w.size for w in model.weights)
    assert all(np.array_equal(a, w) for a, w in zip(arrays, f.weights))
    assert len(clean.batch_losses) == 4 and len(clean.epoch_losses) == 2
    nan_on_call(3)
    with pytest.raises(dc.NumericFailure, match="^probe loss diverged$") as err:
        fit(f.clone(), iter(batches), 1e-3, "probe")
    assert err.value.trace == clean.batch_losses[:2]


@pytest.mark.parametrize("what", ["loss", "gradient", "batch", "weight", "moment"])
def test_an_overflowing_training_step_raises_without_a_warning(what):
    # A step computes in float32. "loss": latents near 1e20 overflow the
    # float32 squared error while the gradients stay finite, so the step
    # returns an infinite loss before Adam squares them, and fit raises on
    # it. "gradient": the saturated tanh of the second layer meets an
    # infinite incoming gradient, and the step raises. "batch": latents of
    # 1e39 are finite in float64 but beyond float32's range. "weight": so
    # is a master weight of 1e39. "moment": a dead first layer (tanh(0) = 0)
    # under output weights of 1e22 gives a finite loss and finite gradients
    # of up to 2.6e22, whose float32 second moments would overflow and
    # silently zero 64 of the 68 nonzero entries' steps. Either way nothing
    # moves, and NumPy warns of nothing, not even of an overflow in a cast
    f = init_world_model(4, 2, hidden=(8, 8), seed=0)
    big = {"loss": 1e20, "batch": 1e39}.get(what, 1.0)
    Z, A, ZN = np.full((5, 4), big), np.zeros((5, 2)), np.full((5, 4), -big)
    if what == "gradient":
        f.weights[2] = np.full((8, 8), 1e30)
        f.weights[4] = np.full((8, 4), 1e30)
        Z, A, ZN = _tiny_batch(3)
    elif what == "weight":
        f.weights[2] = np.full((8, 8), 1e39)
        Z, A, ZN = _tiny_batch(3)
    elif what == "moment":
        for i in (0, 1, 3):
            f.weights[i] = np.zeros_like(f.weights[i])
        f.weights[4] = np.full((8, 4), 1e22)
        Z, A, ZN = _tiny_batch(3)
    model = f.clone()
    opt = FlatAdam(model)
    before = [a.tobytes() for a in (opt.params, opt.state.m, opt.state.v)]
    raises = {"gradient": "^NaN in the backward pass of a one-step loss$",
              "batch": "^a one-step loss input does not fit in float32$",
              "weight": "^a weight does not fit in float32$",
              "moment": "^a gradient does not fit in Adam's float32 moments$"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if what == "loss":
            assert supervised_step(model, opt, Z, A, ZN, 1e-3) == np.inf
            with pytest.raises(dc.NumericFailure, match="^training loss diverged$"):
                fit(f.clone(), iter([(0, Z, A, ZN)]), 1e-3, "training")
        else:
            with pytest.raises(dc.NumericFailure, match=raises[what]):
                supervised_step(model, opt, Z, A, ZN, 1e-3)
    assert [a.tobytes() for a in (opt.params, opt.state.m, opt.state.v)] == before
    assert opt.state.t == 0

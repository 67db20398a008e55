"""The latent transition model z_{t+1} = z_t + mlp([z_t; a_t]) and its
checkpoint, the one training loop (`fit`) with teacher forcing on it,
multi-step rollout, and the per-step model error along a sequence of
latents. The module works on latents only: it reaches neither the
simulator nor the encoder.

The MLP is its weight and bias arrays in layer order: tanh hidden layers,
then a linear output. Training and the attack (`step_loss_grad`) call its
one forward pass, `mlp_forward`, and its one backward pass, `mlp_backward`,
which writes the weight gradients into views of one gradient vector that
lives for the length of a `fit` run (`FlatAdam`), so a step takes one
cast, one check of the gradient and one Adam call. GBP's tape node,
`rollout_nodes`, unrolls both, with their expressions and order, over its
H model steps, on the buffers and pre-zipped row views of a
`RolloutWorkspace` that a plan makes once, not once per rollout.
Every computation runs in the dtype of the model's weights. Models, and
checkpoints, are float64, and so are the master weights, which accumulate
over a run; the computing is done on float32 copies (mixed precision,
Micikevicius et al. 2018): each training step computes its loss and
weight gradients on a float32 mirror of the float64 master weights, and
Adam steps the master weights from float32 moments, exponential averages
whose rounding does not grow with the length of a run; the planners score
and differentiate one copy (`_float32`) per plan; and the FGSM attack of
`finetune.adversarial_wm` takes its input gradient from one copy per
batch, while its deltas stay float64.

`save_model` writes a checkpoint directory, `model.json` and `weights.bin`,
and `load_model` alone reads and checks it."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from . import tensorio
from .data import Dataset, flatten_transitions
from .diffcore import AdamState, NumericFailure
from .rng import generator


def init_mlp(sizes: tuple[int, ...], seed: int) -> list[np.ndarray]:
    """Weights/biases drawn uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    rng = generator(seed, "init-mlp")
    weights = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        weights.append(rng.uniform(-bound, bound, size=fan_out))
    return weights


def mlp_forward(weights: list[np.ndarray],
                x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """tanh hidden layers, linear output; x is (d,) or a batch (B, d).
    Also returns each layer's input: x, then every tanh output, which is
    all `mlp_backward` needs."""
    n_layers = len(weights) // 2
    inputs = []
    for i in range(n_layers):
        inputs.append(x)
        x = x @ weights[2 * i] + weights[2 * i + 1]
        if i < n_layers - 1:
            x = np.tanh(x)
    return x, inputs


def mlp_backward(weights: list[np.ndarray], inputs: list[np.ndarray],
                 g: np.ndarray, dx: bool,
                 params: list[np.ndarray] | None) -> np.ndarray | None:
    """The input gradient (None unless `dx` asks) of one cached forward
    (`mlp_forward`) for the output gradient g. Given `params`, one array
    per weight and bias of `weights` with its shape, the weight and bias
    gradients are also written into them; they need a batch (B, d), the
    input gradient also takes one input (d,). One delta sweep, with the
    expressions and order of the affine and tanh reference ops in
    `tests/chain_ops.py`, so gradients are bit-identical to that unfused
    chain."""
    deltas = [g] * len(inputs)  # gradient at each layer's affine output
    for i in range(len(inputs) - 1, 0, -1):
        W, x, d = weights[2 * i], inputs[i], deltas[i]
        d = W @ d if x.ndim == 1 else d @ W.T
        deltas[i - 1] = d * (1.0 - x * x)  # x: tanh output of layer i - 1
    W, d = weights[0], deltas[0]
    gx = (W @ d if d.ndim == 1 else d @ W.T) if dx else None
    if params is not None:
        for i, (x, d) in enumerate(zip(inputs, deltas)):
            np.matmul(x.T, d, out=params[2 * i])
            np.sum(d, axis=0, out=params[2 * i + 1])
    return gx


@dataclass
class WorldModel:
    """z_{t+1} = z_t + mlp([z_t; a_t]), a tanh MLP with a skip connection."""

    weights: list[np.ndarray]
    d_z: int
    d_a: int
    hidden: tuple[int, ...] = (128, 128)

    def clone(self) -> "WorldModel":
        return WorldModel([w.copy() for w in self.weights], self.d_z, self.d_a,
                          tuple(self.hidden))

    def forward(self, z: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, list]:
        """z_{t+1} for one transition or a batch, and the MLP's layer inputs
        (`mlp_forward`) that `mlp_backward` takes."""
        out, inputs = mlp_forward(self.weights, np.concatenate([z, a], axis=-1))
        return z + out, inputs

    def forward_nodes(self, z: dc.Node, a: dc.Node) -> dc.Node:
        """One transition as a single tape node (op "wm-step"), parents
        (z, z, a): the skip connection is its own edge in front, so z's
        gradient accumulates in the same order, hence to the same bits, as a
        concat -> MLP -> add chain. The weights are constants of the node.

        Nothing in the package calls it: GBP differentiates its whole rollout
        as one "wm-rollout" node (`rollout_nodes`). It stays because the
        benchmark's layer tracer looks it up by name, and the tests build
        the per-step rollout that `rollout_nodes` must match from it."""
        out, inputs = self.forward(z.value, a.value)

        def backward(g):
            gx = mlp_backward(self.weights, inputs, g, True, None)
            return g, gx[..., :self.d_z], gx[..., self.d_z:]

        return dc.Node(z.tape, out, "wm-step", (z, z, a), backward)


def init_world_model(d_z: int, d_a: int, hidden: tuple[int, ...] = (128, 128),
                     seed: int = 0) -> WorldModel:
    sizes = (d_z + d_a,) + tuple(hidden) + (d_z,)
    return WorldModel(init_mlp(sizes, seed), d_z, d_a, tuple(hidden))


def _float32(f: WorldModel) -> WorldModel:
    """The float32 copy of `f` that a caller computes with, made once per
    plan (`planners`) or per attacked batch (`finetune._attack_deltas`);
    `f` itself when its weights are float32 already, as the copy that
    `cem` hands GradCEM's refinement is. A training step does not make
    one: it casts into the mirror that its `FlatAdam` made once per run,
    with the same rounding."""
    if all(w.dtype == np.float32 for w in f.weights):
        return f
    return WorldModel([w.astype(np.float32) for w in f.weights], f.d_z, f.d_a,
                      f.hidden)


def predict(f: WorldModel, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """One transition; accepts single vectors or batches. It computes in the
    dtype of the model's weights: `z` and `a` are cast to it, so a float64
    model (every one `init_world_model` and `load_model` make) computes in
    float64 and a float32 copy in float32."""
    dtype = f.weights[0].dtype
    z = np.asarray(z, dtype=dtype)
    a = np.asarray(a, dtype=dtype)
    if z.shape[-1] != f.d_z or a.shape[-1] != f.d_a:
        raise ValueError(f"dims ({z.shape[-1]}, {a.shape[-1]}) do not match "
                         f"model ({f.d_z}, {f.d_a})")
    return f.forward(z, a)[0]


def rollout_model(f: WorldModel, z1: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Latents z_2 .. z_{H+1} from recursive application (value path only).

    `actions` is one sequence (H, d_a) or a batch of them (..., H, d_a), and
    `z1` one start latent (d_z,) or one per sequence (..., d_z). A batch is
    rolled out as (B, H, d_a) with one `predict` call per step, and the
    latents come back as (..., H, d_z), in the dtype of the model's weights
    (`predict`). A non-finite latent in that dtype raises NumericFailure."""
    dtype = f.weights[0].dtype
    actions = np.asarray(actions, dtype=dtype)
    if actions.ndim < 2 or actions.shape[-2] < 1:
        raise ValueError(f"need (..., H, d_a) actions with H >= 1, "
                         f"got {actions.shape}")
    batch, H = actions.shape[:-2], actions.shape[-2]
    z = np.asarray(z1, dtype=dtype)
    if batch:
        z = np.broadcast_to(z, batch + z.shape[-1:]).reshape(-1, z.shape[-1])
        actions = actions.reshape(-1, H, actions.shape[-1])
    out = np.empty(actions.shape[:-1] + (f.d_z,), dtype=dtype)
    for t in range(H):
        z = predict(f, z, actions[..., t, :])
        if not np.all(np.isfinite(z)):
            raise NumericFailure(f"non-finite latent at rollout step {t + 1}")
        out[..., t, :] = z
    return out.reshape(batch + (H, f.d_z))


class RolloutWorkspace:
    """What every rollout of one GBP plan shares, made once per plan: the
    model `f`, the start latent `z1`, the goal `z_goal`, the goal loss's
    `weights` (None for the final-state distance) with the weights `ws`
    and the `scale` its sum uses, and the buffers that the forward
    (`_rollout_loss`) and the backward sweep of `rollout_nodes` write into,
    in the dtype of `f`'s weights. The start latent and the goal are taken
    as given: `planners.gbp` checks both once per plan and casts the goal
    to the dtype of the weights.

    The buffers: `X` (H + 1, d_z + d_a), whose row t is the MLP input
    [z_{t+1}; a_t] and whose first d_z columns `zs` hold z_1 .. z_{H+1}
    (z_1 is written here, once); `hidden`, one (H, width) array per hidden
    layer for its tanh outputs; `diffs`, the scored latents minus the goal;
    `G` (H, d_z), the gradients of z_2 .. z_{H+1}; `GX` (H, d_z + d_a),
    those of the MLP inputs; `dts`, one (H, width) array per hidden layer
    for its tanh derivative; and one delta row per layer after the first.

    Each step's row views are zipped here too, so a rollout walks tuples
    and makes no view: `steps` holds, for t = 0 .. H - 1, (x, z, z_next,
    ((W, b, h_t) per hidden layer)), and `sweep`, for t = H - 1 .. 0,
    (g_out, g_in, gx, gx_z, ((W, delta, dt_t) per layer after the first,
    the last first)), where g_in is None at t = 0: z_1 gets no gradient.

    Every rollout writes into the same buffers, so `runs` counts the
    forwards, and a node's backward raises unless its forward was the last
    one (see `rollout_nodes`)."""

    def __init__(self, f: WorldModel, z1: np.ndarray, z_goal,
                 weights: np.ndarray | None, horizon: int):
        if horizon < 1:
            raise ValueError("need at least one action")
        H, d_z, dtype = horizon, f.d_z, f.weights[0].dtype
        Ws, bs = f.weights[0::2], f.weights[1::2]
        self.f, self.z1, self.z_goal, self.weights = f, z1, z_goal, weights
        self.horizon, self.runs = H, 0
        # the scored latents are the last len(ws) of z_2 .. z_{H+1}
        self.ws, self.scale = (np.ones(1), 1.0) if weights is None else (weights, 1.0 / H)
        self.X = np.empty((H + 1, d_z + f.d_a), dtype)
        self.X[0, :d_z] = z1
        self.zs = self.X[:, :d_z]  # zs[t + 1] is z_{t+2}
        self.hidden = [np.empty((H, len(b)), dtype) for b in bs[:-1]]
        self.diffs = np.empty((len(self.ws), d_z),
                              np.result_type(dtype, np.asarray(z_goal).dtype))
        self.G = np.empty((H, d_z), dtype)  # G[t] is the gradient of z_{t+2}
        self.GX = np.empty((H, d_z + f.d_a), dtype)  # GX[t] that of step t + 1's input
        self.dts = [np.empty_like(h) for h in self.hidden]
        self.steps = tuple((x, z, z_next, tuple(zip(Ws[:-1], bs[:-1], hs)))
                           for x, z, z_next, *hs in zip(self.X, self.zs, self.zs[1:],
                                                        *self.hidden))
        back = [(W, np.empty(len(W), dtype)) for W in Ws[:0:-1]]
        self.sweep = tuple(
            (g_out, g_in, gx, gx_z,
             tuple((W, delta, dt) for (W, delta), dt in zip(back, dts)))
            for g_out, g_in, gx, gx_z, *dts in zip(
                self.G[::-1], [*self.G[-2::-1], None], self.GX[::-1],
                self.GX[::-1, :d_z], *(dt[::-1] for dt in self.dts[::-1])))


def rollout_nodes(work: RolloutWorkspace, a: dc.Node) -> dc.Node:
    """The goal loss of the H-step rollout of the actions `a` (H, d_a) from
    the workspace's start latent, as one tape node (op "wm-rollout") whose
    only parent is `a`; the gradient reaches the whole action array at once.

    With the workspace's `weights` None the loss is the final-state
    distance ||z_{H+1} - z_goal||^2; else it is (1/H) sum_t weights[t]
    ||z_{t+1} - z_goal||^2 over z_2 .. z_{H+1}, summed left to right
    (`planners.gbp` passes the H weights of a `planners.GOAL_LOSSES` entry,
    which sum to one). No gradient reaches the start latent.

    The node computes in the dtype of the workspace model's weights, like
    `predict`: every buffer of the workspace has that dtype, so a float64
    model computes in float64 and GBP's float32 copy (`_float32`) in
    float32. The loss is summed into a float64 value either way, and
    `dc.grad` returns the action gradient as float64.

    The forward is `_rollout_loss`. The backward is one reverse sweep over
    the workspace's `sweep` rows that inlines the input-gradient half of
    `mlp_backward` per step, with its expressions and order, into a row of
    `G` and a row of `GX`, whose action columns are copied out once. A
    latent's gradient sums (loss term + skip edge) + MLP edge, the order in
    which a tape of one "wm-step" node per step under a weighted squared
    distance sums them, so the bits are that tape's. One check follows the
    sweep: it names the highest non-finite step, the first the sweep met,
    as the skip edge carries a non-finite gradient to every earlier step.
    The weights are constants. The buffers are made once per plan and
    shared by its rollouts, so the backward raises RuntimeError if another
    forward has run on the workspace since this node's. The forward copies
    the actions into `X` and the backward reads only the workspace, so `a`
    may hold an array its caller writes into once the gradient is taken, as
    GBP's leaf holds the plan's action array."""
    loss = _rollout_loss(work, a.value)
    run = work.runs

    def backward(g):
        if work.runs != run:
            raise RuntimeError("stale 'wm-rollout' node: its workspace has "
                               "run a later rollout")
        H, G, ws = work.horizon, work.G, work.ws
        np.multiply((g * work.scale * ws * 2.0)[:, None], work.diffs,
                    G[H - len(ws):])
        for h, dt in zip(work.hidden, work.dts):  # the tanh derivatives
            np.multiply(h, h, dt)
            np.subtract(1.0, dt, dt)
        W_in, final = work.f.weights[0], work.weights is None
        for g_out, g_in, gx, gx_z, layers in work.sweep:
            d = g_out
            for W, delta, dt in layers:
                d = np.dot(W, d, delta)
                np.multiply(d, dt, d)
            np.dot(W_in, d, gx)
            if g_in is None:  # the first step: z_1 is no node
                break
            # z_{t+1}'s gradient: loss term, then skip edge, then MLP edge
            if final:
                np.add(g_out, gx_z, g_in)
            else:
                np.add(g_in, g_out, g_in)
                np.add(g_in, gx_z, g_in)
        t = _first_nonfinite_row(G[::-1])
        if t is not None:
            raise NumericFailure(f"NaN in backward pass at op 'wm-rollout', "
                                 f"step {H - t}")
        return (work.GX[:, work.f.d_z:].copy(),)

    return dc.Node(a.tape, np.asarray(loss), "wm-rollout", (a,), backward)


def _rollout_loss(work: RolloutWorkspace, actions: np.ndarray) -> float:
    """The forward of `rollout_nodes` on a plain (H, d_a) array, in the
    dtype of the workspace model's weights: the goal loss of the rollout
    of `actions` from the workspace's start latent, as a float, leaving in
    the workspace's buffers what the backward reads (the tanh outputs of
    each hidden layer and the scored latents minus the goal).
    `planners.gbp` also calls it to rescore the iterate it returns, on a
    float64 workspace of its own.

    Each model step makes only the NumPy calls its arithmetic needs: it
    walks the row views the workspace zipped once (`steps`) and writes with
    `out=`. The forward is `WorldModel.forward` unrolled: the actions are
    copied into the action columns of `X`, each hidden layer's tanh outputs
    fill a row of its `hidden` array, and the output layer and the skip
    add write z_{t+2} into row t + 1 of `zs` in place. One row-sum check
    over z_2 .. z_{H+1} follows the loop; the first non-finite row raises
    NumericFailure naming its step. Each scored latent's squared distance
    is summed in its dtype, and the weighted sum over the latents in
    float64."""
    H, d_z = work.horizon, work.f.d_z
    if len(actions) != H:
        raise ValueError(f"need {H} actions, got {len(actions)}")
    work.runs += 1
    W_out, b_out = work.f.weights[-2:]
    work.X[:H, d_z:] = actions
    for x, z, z_next, layers in work.steps:
        for W, b, h in layers:
            x = np.dot(x, W, h)
            np.add(x, b, x)
            np.tanh(x, x)
        np.dot(x, W_out, z_next)
        np.add(z_next, b_out, z_next)
        np.add(z, z_next, z_next)
    zs = work.zs
    t = _first_nonfinite_row(zs[1:])
    if t is not None:
        raise NumericFailure(f"non-finite latent at rollout step {t + 1}")
    diffs = work.diffs
    np.subtract(zs[H + 1 - len(diffs):], work.z_goal, diffs)
    total = 0.0
    for sq, w in zip((diffs * diffs).sum(1).tolist(), work.ws):
        total = total + sq * w
    return total * work.scale


def _first_nonfinite_row(rows: np.ndarray) -> int | None:
    """The index of the first row of `rows` whose sum is not finite, which
    is the first row to hold a NaN or an Inf, or None: one check for all."""
    finite = np.isfinite(np.add.reduce(rows, 1))
    return None if finite.all() else int(finite.argmin())


@dataclass
class TrainResult:
    model: WorldModel
    batch_losses: list[float] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)
    synthesized: Dataset | None = None  # a finetune's perturbed or corrected set


def step_loss_grad(f: WorldModel, Z: np.ndarray, A: np.ndarray, target: np.ndarray,
                   scale: float, dx: bool, params: list[np.ndarray] | None):
    """(loss, gZ, gA) of the one-step loss scale * ||f(Z, A) - target||^2,
    a float, with the input gradients only if `dx` asks (else None each).
    It computes in the dtype of the model's weights, like `predict`: each
    input gets one finite check and one cast to that dtype, so a float64
    model computes on the caller's float64 arrays themselves, and a float32
    model (the attack's copy, the training step's mirror) in float32,
    returning float32 input gradients and a loss summed in float32. Given
    `params`, one array per weight array of `f` with its shape and dtype,
    the weight gradients are written into them, unchecked:
    `supervised_step` checks them all in one pass. The
    expressions and their order are those of a "wm-step" node under a
    squared-distance loss node on the tape, so the bits are too. A
    non-finite input or target raises ValueError; a finite one beyond the
    range of the weights' dtype, or a non-finite input gradient,
    NumericFailure. A loss that overflows is returned as it is: `fit`
    checks it and the attack discards it. Both callers run the call under
    one `np.errstate`, so NumPy warns of neither."""
    dtype = f.weights[0].dtype
    Z, A, target = (_as_finite(x, dtype) for x in (Z, A, target))
    pred, inputs = f.forward(Z, A)
    d = pred - target
    g = 2.0 * scale * d
    gx = mlp_backward(f.weights, inputs, g, dx, params)
    gZ = gA = None
    if dx:
        gZ, gA = g + gx[..., :f.d_z], gx[..., f.d_z:]  # the skip edge comes first
        # summed in float64, where no sum of float32 entries overflows
        if not (np.isfinite(gZ.sum(dtype=np.float64))
                and np.isfinite(gA.sum(dtype=np.float64))):
            raise NumericFailure("NaN in the backward pass of a one-step loss")
    return float((d * d).sum() * scale), gZ, gA


def _as_finite(x, dtype) -> np.ndarray:
    """`x` as an array of `dtype`, `x` itself when it is one, after one
    finite check of the cast: a non-finite entry of `x` is a ValueError,
    and a finite one that the cast overflows a NumericFailure."""
    arr = np.asarray(x, dtype=dtype)
    if not np.isfinite(arr).all():
        if not np.isfinite(x).all():
            raise ValueError("tensor entries must be finite")
        raise NumericFailure(f"a one-step loss input does not fit in {arr.dtype}")
    return arr


class FlatAdam:
    """Adam over every weight of one model at once, as one vector: the
    multi-tensor update of fused optimizers, which pays the per-call cost
    once per step instead of once per weight array, and the float32 mirror
    that each training step computes with (mixed precision as in
    Micikevicius et al., "Mixed Precision Training", 2018, with float64 as
    the master copy).

    Making one copies `model.weights` into one contiguous float64 vector,
    `params`, the master weights, and re-seats them as views of it, so the
    model trains in place and the arrays it held before are left as they
    were. Everything else is float32 and has the layout of `params`:
    `state` holds Adam's moments and scratch buffers, which only average
    over a window of about 1 / (1 - beta2) steps, so their rounding does
    not grow with the run; `grads32` is the gradient, with one view per
    weight array, `grad_views`, that the backward pass fills; and `mirror`
    is the vector whose views are the weights of `model32`, a float32
    `WorldModel`. All of them are made here, once per `fit` run, and every
    step reuses them."""

    def __init__(self, model: WorldModel):
        shapes = [w.shape for w in model.weights]
        self.params = np.concatenate([w.ravel() for w in model.weights])
        self.state = AdamState.zeros(self.params.shape, np.float32)
        model.weights = _views(self.params, shapes)
        self.mirror = np.empty(self.params.shape, np.float32)
        self.model32 = WorldModel(_views(self.mirror, shapes), model.d_z,
                                  model.d_a, model.hidden)
        self.grads32 = np.empty_like(self.mirror)
        self.grad_views = _views(self.grads32, shapes)


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """`flat` cut, in order, into views of the given shapes."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape)
            for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


# A float32 gradient whose squared norm is below this has every entry below
# 1e19 in size, so Adam's float32 moments, running averages of the entries
# and of their squares, stay within rounding of 1e38 even bias-corrected,
# inside float32's 3.4e38. Above it, the bias-corrected second moment of a
# large entry can overflow (from |g| of about 1.8e19 at the first step) and
# make that entry's step a silent zero
_MOMENT_NORM2 = 1e38


def supervised_step(model: WorldModel, opt: FlatAdam, Z: np.ndarray,
                    A: np.ndarray, ZN: np.ndarray, lr: float) -> float:
    """One Adam step on the mean squared next-latent error of a batch,
    computed in float32 and applied to the float64 master weights.

    `model.weights` must be the views of `opt.params` that making `opt`
    re-seated. The step casts `opt.params` into `opt.mirror` in place, and
    takes the loss and the float32 weight gradients, into `opt.grads32`,
    from `opt.model32` (`step_loss_grad`, which casts the batch to float32).
    A master weight or a batch entry that is finite but beyond float32's
    range raises NumericFailure. One float32 pass over the gradient, its
    squared norm, checks the rest: a non-finite entry raises NumericFailure,
    and so, when the loss is finite, does a norm of 1e19 or more, with
    which Adam's float32 moments could overflow. Each leaves the weights
    and `opt.state` as they were. Then one `adam_step` steps the float32
    moments and, through them, the float64 master weights, hence `model`,
    in place, so the caller owns both (every trainer hands `fit` a clone).
    Returns the batch loss, summed in float32; a non-finite one is returned
    before any step, for `fit` to raise on. The cast, the loss, the
    gradients and their check run under `np.errstate`, so an overflow shows
    as one of those failures, never as a NumPy warning."""
    try:  # the cast flags overflow only for a weight beyond float32's range
        with np.errstate(over="raise"):
            np.copyto(opt.mirror, opt.params)
    except FloatingPointError:
        raise NumericFailure("a weight does not fit in float32") from None
    with np.errstate(over="ignore", invalid="ignore"):
        loss, _, _ = step_loss_grad(opt.model32, Z, A, ZN, 1.0 / len(Z), False,
                                    opt.grad_views)
        # NaN, inf and a norm too large for the moments all fail the test
        fits = np.dot(opt.grads32, opt.grads32) < _MOMENT_NORM2
    if not fits and not np.isfinite(opt.grads32).all():
        raise NumericFailure("NaN in the backward pass of a one-step loss")
    if not np.isfinite(loss):
        return loss
    if not fits:
        raise NumericFailure("a gradient does not fit in Adam's float32 moments")
    dc.adam_step(opt.params, opt.grads32, opt.state, lr)
    return loss


def fit(model: WorldModel, batches, lr: float, what: str) -> TrainResult:
    """Train `model` in place with one Adam step (`supervised_step`) per
    (epoch, Z, A, ZN) batch that `batches` yields, keeping every batch loss
    and the mean batch loss of each epoch, in the order the epochs come.

    The one training loop: teacher forcing, adversarial and online
    finetuning differ only in the batches they feed it. The run first packs
    the weights into one float64 vector (`FlatAdam`), which re-seats
    `model.weights` as its views and makes the float32 mirror, gradient
    and Adam moments that every step reuses; the arrays `model` held
    before are not changed. Each step computes in float32 and steps the
    float64 weights (`supervised_step`). `batches` is read lazily, so a
    batch built from `model` sees the weights of every step before it. A
    non-finite loss raises NumericFailure("<what> loss diverged") with the
    earlier batch losses as its trace."""
    opt = FlatAdam(model)
    result = TrainResult(model)
    by_epoch: dict = {}
    for epoch, Z, A, ZN in batches:
        loss = supervised_step(model, opt, Z, A, ZN, lr)
        del Z, A, ZN  # the next batch is built without this one held alive
        if not np.isfinite(loss):
            raise NumericFailure(f"{what} loss diverged", trace=result.batch_losses)
        result.batch_losses.append(loss)
        by_epoch.setdefault(epoch, []).append(loss)
    result.epoch_losses = [float(np.mean(ep)) for ep in by_epoch.values()]
    return result


def shuffled_batches(n: int, batch_size: int, epochs: int, seed: int):
    """(epoch, indices) for each batch of `epochs` passes over `n` items:
    epoch e walks a permutation drawn from `generator(seed, "shuffle", e)`
    in slices of `batch_size`, the last slice short."""
    for epoch in range(epochs):
        perm = generator(seed, "shuffle", epoch).permutation(n)
        for lo in range(0, n, batch_size):
            yield epoch, perm[lo:lo + batch_size]


def train_teacher_forcing(f: WorldModel, data: Dataset, epochs: int,
                          batch_size: int, lr: float, seed: int = 0) -> TrainResult:
    """Fit next-latent prediction on (z_t, a_t, z_{t+1}) triplets with Adam:
    every epoch shuffles all triplets of the dataset and walks them in
    batches of `batch_size`."""
    if not len(data):
        raise ValueError("empty dataset")
    Z, A, ZN = flatten_transitions(data)
    batches = ((epoch, Z[idx], A[idx], ZN[idx])
               for epoch, idx in shuffled_batches(len(Z), batch_size, epochs, seed))
    return fit(f.clone(), batches, lr, "training")


def wm_error(f: WorldModel, zs: np.ndarray, actions) -> np.ndarray:
    """Teacher-forced model error, one squared distance per step: step t
    scores `predict(f, zs[t], a_t)` against `zs[t + 1]`, so the model is fed
    the latent of the *true* state at every step and errors never compound
    in this metric. `zs` holds the H + 1 latents of the states that the H
    `actions` visit, the start first."""
    actions = np.asarray(actions, dtype=np.float64)
    values = np.empty(len(actions))
    for t, a in enumerate(actions):
        d = predict(f, zs[t], a) - zs[t + 1]
        values[t] = float(d @ d)
    return values


def save_model(path, model: WorldModel, meta: dict | None = None) -> None:
    os.makedirs(path, exist_ok=True)
    desc = {
        "d_z": model.d_z, "d_a": model.d_a,
        "hidden": list(model.hidden), "residual": True,  # load_model takes only true
        "meta": meta or {},
    }
    tensorio.write_json(os.path.join(path, "model.json"), desc, indent=2)
    tensorio.save_tensors(os.path.join(path, "weights.bin"), model.weights)


def _widths(v) -> bool:
    return type(v) is list and all(type(w) is int and w >= 1 for w in v)


# each model.json key: whether a value is one that `save_model` writes, which are
_DESCRIPTION = {"d_z": (lambda v: _widths([v]), "an integer >= 1"),
                "d_a": (lambda v: _widths([v]), "an integer >= 1"),
                "hidden": (_widths, "a list of integers >= 1"),
                "residual": (lambda v: v is True, "true")}


def load_model(path) -> tuple[WorldModel, dict]:
    """The model `save_model` wrote to `path`, and its meta; any other
    description, or a meta that is not an object whose `encoder_hash`, when
    present, is a string, is a ValueError naming the key. `weights.bin`
    must hold just the arrays `init_mlp` draws for the description, all
    finite; a mismatched, truncated or non-finite file is a ValueError.
    Every model computes in float32 (`_float32`, `FlatAdam`), so a weight
    beyond float32's range is a NumericFailure, with no NumPy warning."""
    desc = tensorio.read_json(os.path.join(path, "model.json"), _DESCRIPTION)
    for key, (ok, expect) in _DESCRIPTION.items():
        if not ok(desc[key]):
            raise ValueError(f"model.json: {key}: expected {expect}, got {desc[key]!r}")
    meta = desc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"model.json: meta: expected an object, got {meta!r}")
    if not isinstance(meta.get("encoder_hash", ""), str):
        raise ValueError("model.json: meta.encoder_hash: expected a string, "
                         f"got {meta['encoder_hash']!r}")
    d_z, d_a, hidden = desc["d_z"], desc["d_a"], tuple(desc["hidden"])
    sizes = (d_z + d_a,) + hidden + (d_z,)
    weights = tensorio.load_tensors(os.path.join(path, "weights.bin"))
    got = [w.shape for w in weights]
    want = [s for i, o in zip(sizes[:-1], sizes[1:]) for s in ((i, o), (o,))]
    if got != want:
        raise ValueError(f"weights.bin holds shapes {got}, model.json describes {want}")
    if not all(np.isfinite(w).all() for w in weights):
        raise ValueError("weights.bin holds a non-finite entry")
    with np.errstate(over="ignore"):  # a finite weight casts to inf iff it overflows
        if not all(np.isfinite(w.astype(np.float32)).all() for w in weights):
            raise NumericFailure("a weight does not fit in float32")
    return WorldModel(weights, d_z, d_a, hidden), meta

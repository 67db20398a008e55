"""Training loops written out by hand, the textbook reference that the
trainers built on `worldmodel.fit` must match bit for bit: per batch, the
weight gradients of `step_loss_grad` on a float32 copy of the model
(`worldmodel._float32`) into float32 arrays of their own, then one
`adam_step` per float64 weight array with its own float32 `AdamState`,
on the float32 gradient as it is. Nothing here packs the weights into one
vector. With `moments=np.float64`, each array's moments are float64 and
its gradient is up-cast to float64 first, the step the trainers took
before their moments were float32: the yardstick of their precision."""

import numpy as np

from wmplanlab.data import Dataset, flatten_transitions
from wmplanlab.diffcore import AdamState, adam_step
from wmplanlab.rng import generator
from wmplanlab.worldmodel import _float32, step_loss_grad


def per_tensor_fit(f, batches, lr, moments=np.float32):
    """Train a copy of `f` with one per-tensor Adam step on the mean
    squared next-latent error of each (Z, A, ZN) batch that
    `batches(model)` yields, `model` being the copy as the steps before
    the batch left it. Each step computes in a float32 copy of the model
    made for it, and steps the float64 weights from Adam moments of dtype
    `moments`, on the gradient cast to that dtype. Returns the copy and
    the batch losses."""
    model = f.clone()
    opt = [AdamState.zeros(w.shape, moments) for w in model.weights]
    grads = [np.empty(w.shape, np.float32) for w in model.weights]
    losses = []
    for Z, A, ZN in batches(model):
        loss, _, _ = step_loss_grad(_float32(model), Z, A, ZN, 1.0 / len(Z),
                                    False, grads)
        for w, g, state in zip(model.weights, grads, opt):
            adam_step(w, g.astype(moments, copy=False), state, lr)
        losses.append(loss)
    return model, losses


def transition_teacher_forcing(f, data, epochs, batch_size, lr, seed,
                               moments=np.float32):
    """`worldmodel.train_teacher_forcing`: every epoch shuffles all
    transitions with generator(seed, "shuffle", epoch) and takes one step
    on each run of `batch_size` of them, with Adam moments of dtype
    `moments`."""
    Z, A, ZN = flatten_transitions(data)

    def batches(model):
        for epoch in range(epochs):
            perm = generator(seed, "shuffle", epoch).permutation(len(Z))
            for lo in range(0, len(Z), batch_size):
                idx = perm[lo:lo + batch_size]
                yield Z[idx], A[idx], ZN[idx]

    return per_tensor_fit(f, batches, lr, moments)


def trajectory_teacher_forcing(f, data, epochs, batch_size, lr, seed,
                               perturb=None, moments=np.float32):
    """Teacher forcing on whole-trajectory batches: every epoch shuffles the
    trajectories with generator(seed, "shuffle", epoch) and takes one Adam
    step on the transitions of each run of `batch_size` of them (`batch`,
    the dataset of those rows). Given `perturb(model, step, batch, Z, A,
    ZN) -> (Z, A)`, the inputs of the step-th step (counted over all
    epochs) are moved with the weights left by the steps before it. Adam's
    moments are of dtype `moments`. Returns the trained copy of `f` and the
    batch losses."""
    n = len(data)

    def batches(model):
        step = 0
        for epoch in range(epochs):
            perm = generator(seed, "shuffle", epoch).permutation(n)
            for lo in range(0, n, batch_size):
                rows = perm[lo:lo + batch_size]
                batch = Dataset(data.actions[rows], latents=data.latents[rows])
                Z, A, ZN = flatten_transitions(batch)
                if perturb is not None:
                    Z, A = perturb(model, step, batch, Z, A, ZN)
                step += 1
                yield Z, A, ZN

    return per_tensor_fit(f, batches, lr, moments)

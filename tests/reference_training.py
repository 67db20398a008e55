"""A training loop written out by hand on `supervised_step` and `AdamState`,
the reference the trainers built on `worldmodel.fit` must match bit for
bit."""

from wmplanlab.data import Dataset, flatten_transitions
from wmplanlab.diffcore import AdamState
from wmplanlab.rng import generator
from wmplanlab.worldmodel import supervised_step


def trajectory_teacher_forcing(f, data, epochs, batch_size, lr, seed,
                               perturb=None):
    """Teacher forcing on whole-trajectory batches: every epoch shuffles the
    trajectories with generator(seed, "shuffle", epoch) and takes one Adam
    step on the transitions of each run of `batch_size` of them (`batch`,
    the dataset of those rows). Given `perturb(model, step, batch, Z, A,
    ZN) -> (Z, A)`, the inputs of the step-th step (counted over all
    epochs) are moved with the weights left by the steps before it. Returns
    the trained copy of `f` and the batch losses."""
    model = f.clone()
    opt = [AdamState.zeros(w.shape) for w in model.weights]
    losses = []
    n = len(data)
    for epoch in range(epochs):
        perm = generator(seed, "shuffle", epoch).permutation(n)
        for lo in range(0, n, batch_size):
            rows = perm[lo:lo + batch_size]
            batch = Dataset(data.actions[rows], latents=data.latents[rows])
            Z, A, ZN = flatten_transitions(batch)
            if perturb is not None:
                Z, A = perturb(model, len(losses), batch, Z, A, ZN)
            losses.append(supervised_step(model, opt, Z, A, ZN, lr))
    return model, losses

import numpy as np
import pytest

from wmplanlab import diffcore as dc
from wmplanlab.worldmodel import init_world_model
from wmplanlab.rng import generator

import chain_ops as co
import reference_rollout as ref
from conftest import central_fd, rel_err


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        dc.tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        dc.tensor(np.inf)
    arr = dc.tensor([1.0, 2.0])
    assert not arr.flags.writeable


def test_grad_square_scalar():
    tape = dc.Tape()
    x = tape.leaf(3.0)
    loss = ref.sq_dist([x], [0.0], [1.0])
    assert float(loss.value) == 9.0
    (g,) = dc.grad(loss, [x])
    assert g == pytest.approx(6.0)


def test_sq_dist_rejects_a_nonfinite_target():
    tape = dc.Tape()
    x = tape.leaf([1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        ref.sq_dist([x], [[0.0, np.nan]], [1.0])
    with pytest.raises(ValueError, match="finite"):
        ref.sq_dist([x], [[np.inf, 0.0]], [1.0])


def test_grad_least_squares_matches_fd():
    rng = generator(7, "lsq")
    W = rng.standard_normal((4, 4))
    y = rng.standard_normal(4)
    x0 = rng.standard_normal(4)

    def loss_value(x):
        r = W @ x - y
        return float(r @ r)

    tape = dc.Tape()
    x = tape.leaf(x0)
    Wx = co.affine(x, tape.constant(W.T), tape.constant(np.zeros(4)))
    loss = ref.sq_dist([Wx], [y], [1.0])
    (g,) = dc.grad(loss, [x])
    fd = central_fd(loss_value, x0)
    assert rel_err(g, fd) < 1e-6


def test_grad_disconnected_is_zero():
    tape = dc.Tape()
    x = tape.leaf([1.0, 2.0])
    w = tape.leaf([[3.0, 4.0]])
    loss = ref.sq_dist([x], [[0.0, 0.0]], [1.0])
    (gw,) = dc.grad(loss, [w])
    assert gw.shape == (1, 2)
    assert np.all(gw == 0.0)


def test_grad_asks_each_backward_only_for_the_needed_parents():
    asked = []

    def recorded(node):
        inner = node.backward

        def backward(g, needed):
            asked.append((node.op, needed))
            return inner(g, needed)

        node.backward = backward
        return node

    tape = dc.Tape()
    x, c, w = tape.leaf([1.0, 2.0]), tape.constant([3.0, 4.0]), tape.leaf([5.0])
    y = recorded(co.add(x, c))
    loss = recorded(ref.sq_dist([y], [[0.0, 0.0]], [1.0]))
    expected = 2.0 * (x.value + c.value)
    (gw,) = dc.grad(loss, [w])  # the loss does not reach w
    assert asked == [] and np.all(gw == 0.0)
    (gy,) = dc.grad(loss, [y])  # y's parents are not needed
    assert asked == [("sq-dist", (True,))]
    assert np.array_equal(gy, expected)
    asked.clear()
    (gx,) = dc.grad(loss, [x])
    assert asked == [("sq-dist", (True,)), ("add", (True, False))]
    assert np.array_equal(gx, expected)


def test_grad_rejects_an_ancestor_on_another_tape():
    # indices restart on every tape, so a foreign node could alias a local one
    tape, other = dc.Tape(), dc.Tape()
    x = tape.leaf([1.0, 2.0])
    y = other.leaf([3.0, 4.0])
    loss = ref.sq_dist([co.add(x, y)], [[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError, match="another tape"):
        dc.grad(loss, [x])


def test_tape_leaves_are_read_only_rows_checked_once():
    tape = dc.Tape()
    arr = np.arange(6.0).reshape(3, 2)
    rows = ref.leaves(tape, arr)
    assert [r.op for r in rows] == ["leaf"] * 3
    assert [r.index for r in rows] == [0, 1, 2]
    for i, r in enumerate(rows):
        assert np.array_equal(r.value, arr[i])
        assert not r.value.flags.writeable
    arr[0, 0] = 99.0  # the leaves hold a copy
    assert rows[0].value[0] == 0.0
    with pytest.raises(ValueError, match="finite"):
        ref.leaves(tape, [[0.0, np.nan]])


def test_grad_requires_scalar_loss():
    tape = dc.Tape()
    x = tape.leaf([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        dc.grad(co.square(x), [x])


def _op_cases(rng):
    """Scalar losses exercising every reference op and `sq_dist`."""
    v = rng.standard_normal(4)

    def f_add_mul(tape, x):
        y = co.add(x, tape.constant(v[:, None] if x.value.ndim == 2 else v))
        return co.sum_(co.mul(y, y))

    def f_sub_tanh(tape, x):
        return co.sum_(co.square(co.tanh(co.sub(x, tape.constant(0.5)))))

    def f_square_sum(tape, x):
        return co.sum_(co.square(x))

    # a distinct weight per output row, so a misplaced part changes the gradient
    rows = np.arange(1.0, 7.0)[:, None]

    def f_concat(tape, x):
        c = co.concat([x, co.tanh(x)], axis=0)
        return co.sum_(co.square(co.mul(c, tape.constant(rows))))

    Wa = rng.standard_normal((4, 3))
    ba = rng.standard_normal(3)

    def f_affine_1d(tape, x):
        return co.sum_(co.square(co.affine(x, tape.constant(Wa), tape.constant(ba))))

    def f_affine_batch(tape, x):
        return co.sum_(co.square(co.affine(x, tape.constant(Wa),
                                           tape.constant(ba))))

    targets = rng.standard_normal((2, 3, 4))

    def f_sq_dist(tape, x):
        return ref.sq_dist([x, co.tanh(x)], targets, [0.3, 0.7], 0.25)

    return {
        "add_mul": (f_add_mul, (4,)),
        "sub_tanh": (f_sub_tanh, (3, 4)),
        "square_sum": (f_square_sum, (3, 4)),
        "concat": (f_concat, (3, 4)),
        "affine_1d": (f_affine_1d, (4,)),
        "affine_batch": (f_affine_batch, (5, 4)),
        "sq_dist": (f_sq_dist, (3, 4)),
    }


@pytest.mark.parametrize("seed", range(20))
def test_all_ops_match_finite_differences(seed):
    rng = generator(seed, "ops")
    for name, (build, shape) in _op_cases(rng).items():
        x0 = rng.standard_normal(shape)

        def value(x):
            tape = dc.Tape()
            return float(build(tape, tape.leaf(x)).value)

        tape = dc.Tape()
        node = tape.leaf(x0)
        (g,) = dc.grad(build(tape, node), [node])
        fd = central_fd(value, x0)
        assert rel_err(g, fd) < 1e-5, name


@pytest.mark.parametrize("batch", [False, True])
def test_affine_param_gradients_match_fd(batch):
    rng = generator(2, "affine", batch)
    x = rng.standard_normal((5, 4) if batch else (4,))
    W0 = rng.standard_normal((4, 3))
    b0 = rng.standard_normal(3)

    def value_w(w_flat):
        return float(np.sum((x @ w_flat.reshape(4, 3) + b0) ** 2))

    def value_b(b):
        return float(np.sum((x @ W0 + b) ** 2))

    tape = dc.Tape()
    W = tape.leaf(W0)
    b = tape.leaf(b0)
    loss = co.sum_(co.square(co.affine(tape.constant(x), W, b)))
    gw, gb = dc.grad(loss, [W, b])
    assert rel_err(gw, central_fd(value_w, W0.ravel()).reshape(4, 3)) < 1e-5
    assert rel_err(gb, central_fd(value_b, b0)) < 1e-5


def test_backward_through_chain_matches_fd():
    # backprop through time over a T-step nonlinear recursion
    rng = generator(11, "chain")
    T = 10
    W = 0.6 * rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 2))
    z0 = rng.standard_normal(5)
    acts = rng.standard_normal((T, 2))

    def final_loss(a_flat):
        z = z0
        for t in range(T):
            z = np.tanh(W @ z + B @ a_flat.reshape(T, 2)[t])
        return float(z @ z)

    tape = dc.Tape()
    Wt, Bt = tape.constant(W.T), tape.constant(B.T)
    zero = tape.constant(np.zeros(5))
    a_nodes = [tape.leaf(acts[t]) for t in range(T)]
    z = tape.constant(z0)
    for t in range(T):
        z = co.tanh(co.affine(z, Wt, co.affine(a_nodes[t], Bt, zero)))
    loss = ref.sq_dist([z], [np.zeros(5)], [1.0])
    grads = np.stack(dc.grad(loss, a_nodes))
    fd = central_fd(final_loss, acts.ravel()).reshape(T, 2)
    assert rel_err(grads, fd) < 1e-5


def test_nonfinite_backward_raises_numeric_failure():
    tape = dc.Tape()
    x = tape.leaf(np.full(3, 1e200))
    with np.errstate(over="ignore"):
        loss = ref.sq_dist([co.square(x)], [np.zeros(3)], [1.0])  # inf forward
        with pytest.raises(dc.NumericFailure, match="op"):
            dc.grad(loss, [x])


def test_tape_evaluation_deterministic():
    def run():
        rng = generator(3, "det")
        tape = dc.Tape()
        x = tape.leaf(rng.standard_normal((6, 6)))
        W = tape.constant(rng.standard_normal((6, 6)))
        y = co.tanh(co.affine(x, W, tape.constant(rng.standard_normal(6))))
        loss = ref.sq_dist([y], [rng.standard_normal((6, 6))], [1.0], 1.0 / 36)
        (g,) = dc.grad(loss, [x])
        return loss.value.tobytes(), g.tobytes()

    assert run() == run()


# --- update rules ----------------------------------------------------------


def test_sgd_step_examples():
    p = np.array([1.0, 2.0])
    assert dc.sgd_step(p, np.array([1.0, -1.0]), 0.5) is None
    assert np.allclose(p, [0.5, 2.5])
    p = np.array([3.0, -4.0])
    dc.sgd_step(p, np.zeros(2), 0.1)
    assert np.array_equal(p, [3.0, -4.0])
    for grads, eta in ((np.ones(3), 0.1), (np.ones(2), 0.0), (np.ones(2), -0.1)):
        with pytest.raises(ValueError):
            dc.sgd_step(p, grads, eta)
        assert np.array_equal(p, [3.0, -4.0])


def test_sgd_quadratic_decay():
    # x <- x - eta * 2x contracts by (1 - 2*eta) per step
    x = np.array(1.0)
    for _ in range(50):
        dc.sgd_step(x, 2.0 * x, 0.1)
    assert abs(float(x)) < 1e-4
    assert float(x) == pytest.approx((1 - 0.2) ** 50)


def test_sgd_step_has_the_bits_of_the_returning_expression():
    rng = generator(6, "sgd")
    params = rng.standard_normal((5, 3))
    grads = rng.standard_normal((5, 3))
    x = params.copy()
    dc.sgd_step(x, grads, 0.37)
    assert np.array_equal(x, params - 0.37 * grads)


def _reference_adam(params, grad_seq, eta, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent textbook Adam, used as the oracle."""
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    x = params.copy()
    for t, g in enumerate(grad_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        x = x - eta * mh / (np.sqrt(vh) + eps)
    return x


def _run_adam(params, grad_seq, eta):
    """A copy of `params` stepped in place by `adam_step` with each gradient
    of `grad_seq` in turn from a zero state, and that state."""
    x = params.copy()
    state = dc.AdamState.zeros(x.shape)
    for g in grad_seq:
        assert dc.adam_step(x, g, state, eta) is None
    return x, state


def test_adam_matches_reference_on_random_sequences():
    rng = generator(5, "adam")
    params = rng.standard_normal(7)
    grad_seq = [rng.standard_normal(7) for _ in range(25)]
    expected = _reference_adam(params, grad_seq, eta=0.05)
    x, state = _run_adam(params, grad_seq, 0.05)
    assert np.array_equal(x, expected)
    assert state.t == 25


def test_adam_matches_reference_bit_for_bit_at_preset_shapes():
    # the six weight tensors of a preset-size model (d_z 64, d_a 2, hidden
    # 128x128) over more steps than a preset's training run takes, with
    # gradients whose scale moves over four decades
    weights = init_world_model(64, 2, hidden=(128, 128), seed=0).weights
    assert len(weights) == 6

    def grad_seq(i, shape):
        rng = generator(7, "adam-preset", i)
        for _ in range(700):
            yield rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 1.0)

    for i, w in enumerate(weights):
        expected = _reference_adam(w, grad_seq(i, w.shape), eta=1e-3)
        x, state = _run_adam(w, grad_seq(i, w.shape), 1e-3)
        assert np.array_equal(x, expected), w.shape
        assert state.t == 700


def test_adam_steps_params_and_state_in_place():
    x = np.array([1.0, -2.0])
    state = dc.AdamState.zeros(2)
    arrays = (x, state.m, state.v, *state.scratch)
    for g in ([0.5, 0.25], [-1.0, 2.0]):
        dc.adam_step(x, np.array(g), state, 0.1)
    assert all(a is b for a, b in zip((x, state.m, state.v, *state.scratch), arrays))
    assert state.t == 2
    assert not np.array_equal(x, [1.0, -2.0])


def test_adam_first_step_magnitude():
    g = np.array([0.3, -2.0])
    x = np.zeros(2)
    dc.adam_step(x, g, dc.AdamState.zeros(2), eta=0.1)
    # bias correction at t=1 gives mhat=g, vhat=g^2: step = -eta*g/(|g|+eps)
    assert np.allclose(x, -0.1 * g / (np.abs(g) + 1e-8))
    assert np.allclose(np.abs(x), 0.1, atol=1e-6)


def test_adam_zero_grad_zero_state_is_identity():
    p = np.array([1.0, -2.0, 3.0])
    state = dc.AdamState.zeros(3)
    dc.adam_step(p, np.zeros(3), state, eta=0.5)
    assert np.array_equal(p, [1.0, -2.0, 3.0])
    assert state.t == 1


def test_adam_quadratic_convergence():
    x = np.array(5.0)
    state = dc.AdamState.zeros(())
    for _ in range(300):
        dc.adam_step(x, 2.0 * x, state, eta=0.3)
    assert abs(float(x)) < 1e-2


def test_adam_validates_inputs():
    # a rejected call changes neither the params nor any part of the state
    x = np.array([1.0, -2.0])
    state = dc.AdamState.zeros(2)
    dc.adam_step(x, np.array([0.5, 0.25]), state, 0.1)
    before = (x.copy(), state.m.copy(), state.v.copy(), state.t)
    bad = [(np.ones(3), state, 0.1), (np.ones(2), dc.AdamState.zeros(3), 0.1),
           (np.ones(2), dc.AdamState(np.zeros(2), np.zeros(3)), 0.1),
           (np.ones(2), state, 0.0), (np.ones(2), state, -0.1)]
    for grads, st, eta in bad:
        with pytest.raises(ValueError):
            dc.adam_step(x, grads, st, eta)
        assert np.array_equal(x, before[0])
        assert np.array_equal(state.m, before[1])
        assert np.array_equal(state.v, before[2])
        assert state.t == before[3]

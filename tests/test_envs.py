import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_generation
from wmplanlab import envs
from wmplanlab.data import (Dataset, HorizonTooLong, load_dataset, sample_window,
                            save_dataset)
from wmplanlab.rng import generator


def _slide_oracle(spec, pos, delta):
    """Independent clamp-and-slide: parametric crossing tests per axis."""
    x, y = pos

    def clamp_axis(start, move, other, walls):
        end = start + move
        for w in walls:
            if not (w.lo <= other <= w.hi):
                continue
            crosses = (start - w.coord) * (end - w.coord) <= 0 and start != w.coord
            if crosses:
                end = w.coord - np.sign(move) * envs.CONTACT_EPS
        return min(max(end, 0.0), spec.size)

    nx = clamp_axis(x, delta[0], y, [w for w in spec.walls if w.axis == 0])
    ny = clamp_axis(y, delta[1], nx, [w for w in spec.walls if w.axis == 1])
    return np.array([nx, ny])


def test_step_zero_action_is_identity(wall_spec):
    s = envs.EnvState(np.array([0.25, 0.7]), np.zeros(2))
    s2 = envs.step(wall_spec, s, np.zeros(2))
    assert np.array_equal(s2.position, s.position)


def test_step_clamps_at_wall_face(wall_spec):
    # just left of the wall, pushing right through the solid span
    s = envs.EnvState(np.array([0.48, 0.2]), np.zeros(2))
    a = np.array([0.05, 0.01])
    expected = s.position
    for _ in range(wall_spec.frameskip):
        expected = _slide_oracle(wall_spec, expected, a)
    got = envs.step(wall_spec, s, a)
    assert np.allclose(got.position, expected, atol=1e-12)
    assert got.position[0] == pytest.approx(0.5 - envs.CONTACT_EPS, abs=1e-15)
    assert got.position[1] == pytest.approx(0.25)  # lateral motion applied


def test_step_passes_through_door(wall_spec):
    s = envs.EnvState(np.array([0.48, 0.5]), np.zeros(2))
    got = envs.step(wall_spec, s, np.array([0.05, 0.0]))
    assert got.position[0] > 0.5  # y=0.5 lies in the door gap


def test_step_clamps_action_magnitude(wall_spec):
    s = envs.EnvState(np.array([0.2, 0.2]), np.zeros(2))
    got = envs.step(wall_spec, s, np.array([10.0, 0.0]))
    expected = 0.2 + wall_spec.frameskip * wall_spec.a_max
    assert got.position[0] == pytest.approx(expected)


def test_pointmass_damped_drift_closed_form(pm_spec):
    # zero force: v_k = (1-g)^k v0, position advances by the geometric sum
    v0 = np.array([0.004, -0.003])
    s = envs.EnvState(np.array([0.25, 0.75]), v0.copy())
    got = envs.step(pm_spec, s, np.zeros(2))
    g = pm_spec.damping
    n = pm_spec.frameskip
    factor = (1 - g) * (1 - (1 - g) ** n) / g
    assert np.allclose(got.position, s.position + v0 * factor, atol=1e-12)
    assert np.allclose(got.velocity, v0 * (1 - g) ** n, atol=1e-15)


def test_pointmass_velocity_zeroed_on_hit(pm_spec):
    s = envs.EnvState(np.array([0.49, 0.05]), np.array([0.05, 0.0]))
    got = envs.step(pm_spec, s, np.zeros(2))
    assert got.position[0] <= 0.5
    assert got.velocity[0] == 0.0


def test_visit_matches_fold(wall_spec):
    rng = generator(3, "fold")
    o1 = np.array([0.3, 0.3])
    actions = rng.uniform(-0.05, 0.05, size=(25, 2))
    visited = envs.visit(wall_spec, o1, actions)
    assert visited.shape == (26, 2)
    assert np.array_equal(visited[0], o1)
    cur = envs.state_of_obs(wall_spec, o1)
    for a, o in zip(actions, visited[1:]):
        cur = envs.step(wall_spec, cur, a)
        assert np.array_equal(o, envs.obs_of(wall_spec, cur))


def test_visit_chunking_invariance(pm_spec):
    rng = generator(4, "chunk")
    o1 = np.array([0.2, 0.8, 0.0, 0.0])
    actions = rng.uniform(-1, 1, size=(12, 2))
    full = envs.visit(pm_spec, o1, actions)
    first = envs.visit(pm_spec, o1, actions[:5])
    rest = envs.visit(pm_spec, first[-1], actions[5:])
    assert np.array_equal(full, np.concatenate([first, rest[1:]]))


def test_visit_single_step_reduces_to_step(wall_spec):
    s = envs.EnvState(np.array([0.7, 0.4]), np.zeros(2))
    a = np.array([[0.02, -0.01]])
    o1, o2 = envs.visit(wall_spec, envs.obs_of(wall_spec, s), a)
    assert np.array_equal(o1, s.position)
    assert np.array_equal(o2, envs.step(wall_spec, s, a[0]).position)


@pytest.mark.parametrize("kind,frameskip", [("wall2d", 1), ("wall2d", 5),
                                            ("pointmass", 1), ("pointmass", 5)])
def test_no_wall_penetration_random_pairs(kind, frameskip):
    spec = (envs.wall2d_spec(frameskip) if kind == "wall2d"
            else envs.pointmass_spec(frameskip))
    rng = generator(9, "penetration", kind, frameskip)
    n = 25000  # 4 x 25000 = 1e5 state/action pairs across the parametrization
    for i in range(n):
        pos = rng.uniform(0, 1, size=2)
        vel = rng.uniform(-0.05, 0.05, size=2) if kind == "pointmass" else np.zeros(2)
        a = rng.uniform(-spec.a_max, spec.a_max, size=2)
        s2 = envs.step(spec, envs.EnvState(pos, vel), a)
        x, y = s2.position
        assert 0.0 <= x <= spec.size and 0.0 <= y <= spec.size
        for w in spec.walls:
            if w.axis == 0:
                assert not (abs(x - w.coord) < 1e-12 and w.lo <= y <= w.hi)
            else:
                assert not (abs(y - w.coord) < 1e-12 and w.lo <= x <= w.hi)
        if frameskip == 1 and kind == "wall2d":
            # a side flip within one substep requires the door gap
            door = spec.doors[0]
            if (pos[0] - 0.5) * (x - 0.5) < 0:
                assert door.lo < pos[1] < door.hi


def test_generate_dataset_minimal(wall_spec):
    ds = envs.generate_dataset(wall_spec, 1, 2, "random", seed=0)
    assert len(ds) == 1
    assert ds.obs.shape == (1, 2, 2)
    assert ds.actions.shape == (1, 1, 2)
    assert np.all(np.abs(ds.actions) <= wall_spec.a_max)


def test_generate_dataset_deterministic(wall_spec):
    a = envs.generate_dataset(wall_spec, 10, 20, "goal-seeking-noisy", seed=5)
    b = envs.generate_dataset(wall_spec, 10, 20, "goal-seeking-noisy", seed=5)
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.actions, b.actions)


def test_goal_seeking_crosses_rooms(wall_spec):
    # threshold frozen after first generation: measured 99.8% over 500
    ds = envs.generate_dataset(wall_spec, 500, 50, "goal-seeking-noisy", seed=0)
    both = 0
    for obs in ds.obs:
        sides = np.sign(obs[:, 0] - 0.5)
        both += bool((sides > 0).any() and (sides < 0).any())
    assert both / 500 >= 0.30


def test_generate_dataset_validates_args(wall_spec):
    with pytest.raises(ValueError):
        envs.generate_dataset(wall_spec, 0, 10, "random", 0)
    with pytest.raises(ValueError):
        envs.generate_dataset(wall_spec, 1, 1, "random", 0)
    with pytest.raises(ValueError):
        envs.generate_dataset(wall_spec, 1, 5, "hover", 0)


def test_sample_task_zero_gap_degenerate(wall_spec):
    ds = envs.generate_dataset(wall_spec, 3, 10, "random", seed=1)
    task = envs.sample_task(wall_spec, ds, 0, seed=2)
    assert np.array_equal(task.start.position, task.goal_state.position)


def test_sample_task_replay_reaches_goal(wall_spec):
    ds = envs.generate_dataset(wall_spec, 5, 30, "goal-seeking-noisy", seed=3)
    task = envs.sample_task(wall_spec, ds, 25, seed=4)
    # find the trajectory/offset that produced the task and replay it
    found = False
    for obs, actions in zip(ds.obs, ds.actions):
        for off in range(len(actions) - 25 + 1):
            if np.array_equal(obs[off], envs.obs_of(wall_spec, task.start)):
                visited = envs.visit(wall_spec, obs[off], actions[off:off + 25])
                assert envs.success(wall_spec, envs.state_of_obs(wall_spec, visited[-1]),
                                    task)
                found = True
    assert found


def test_sample_task_deterministic(wall_spec):
    ds = envs.generate_dataset(wall_spec, 5, 30, "random", seed=3)
    t1 = envs.sample_task(wall_spec, ds, 10, seed=7)
    t2 = envs.sample_task(wall_spec, ds, 10, seed=7)
    assert np.array_equal(t1.start.position, t2.start.position)
    assert np.array_equal(t1.goal_obs, t2.goal_obs)


def test_sample_window_is_views_of_the_window_it_draws(wall_spec):
    raw = envs.generate_dataset(wall_spec, 5, 12, "random", seed=1)
    rng = generator(3, "window")
    i, off = int(rng.integers(5)), int(rng.integers(11 - 4 + 1))
    assert sample_window(raw, 4, generator(3, "window")).latents is None
    data = Dataset(raw.actions, obs=raw.obs, latents=raw.obs * 2.0)
    window = sample_window(data, 4, generator(3, "window"))
    for got, whole, steps in zip(window, (data.latents, data.actions, data.obs),
                                 (5, 4, 5)):
        assert np.shares_memory(got, whole)
        assert np.array_equal(got, whole[i, off:off + steps])


def test_sample_task_dataset_too_short(wall_spec):
    ds = envs.generate_dataset(wall_spec, 2, 5, "random", seed=0)
    with pytest.raises(HorizonTooLong, match=r"horizon 25 .* \(T = 4 steps\)"):
        envs.sample_task(wall_spec, ds, 25, seed=0)


def test_success_predicate(wall_spec):
    goal = envs.EnvState(np.array([0.3, 0.3]), np.zeros(2))
    task = envs.TaskInstance(goal, np.array([0.3, 0.3]), goal, 0)
    assert envs.success(wall_spec, goal, task)
    r = envs.success_radius(wall_spec)
    on_boundary = envs.EnvState(goal.position + np.array([r, 0.0]), np.zeros(2))
    assert envs.success(wall_spec, on_boundary, task)  # closed ball
    outside = envs.EnvState(goal.position + np.array([r * 1.001, 0.0]), np.zeros(2))
    assert not envs.success(wall_spec, outside, task)


def test_success_symmetric(wall_spec):
    p = envs.EnvState(np.array([0.30, 0.33]), np.zeros(2))
    q = envs.EnvState(np.array([0.32, 0.30]), np.zeros(2))
    task_pq = envs.TaskInstance(p, envs.obs_of(wall_spec, q), q, 0)
    task_qp = envs.TaskInstance(q, envs.obs_of(wall_spec, p), p, 0)
    assert envs.success(wall_spec, p, task_pq) == envs.success(wall_spec, q, task_qp)


def test_spec_validates_frameskip():
    with pytest.raises(ValueError):
        envs.wall2d_spec(frameskip=0)


def test_dataset_disk_roundtrip(tmp_path, wall_spec):
    ds = envs.generate_dataset(wall_spec, 4, 8, "random", seed=6)
    path = tmp_path / "data"
    save_dataset(path, ds, env=envs.spec_to_dict(wall_spec), seed=6)
    back, manifest = load_dataset(path)
    assert manifest["count"] == 4
    assert manifest["provenance"] == "expert"
    assert manifest["content"] == "obs"
    assert np.array_equal(ds.obs, back.obs)
    assert np.array_equal(ds.actions, back.actions)
    assert back.latents is None
    assert sorted(os.listdir(path)) == ["data.bin", "manifest.json"]
    latent = Dataset(ds.actions[:, :1], latents=ds.obs[:, :2], provenance="adversarial")
    save_dataset(path, latent)
    back, manifest = load_dataset(path)
    assert (manifest["content"], back.obs) == ("latent", None)
    assert np.array_equal(back.latents, latent.latents)


def test_obs_state_roundtrip(wall_spec, pm_spec):
    s = envs.EnvState(np.array([0.1, 0.9]), np.array([0.02, -0.01]))
    o = envs.obs_of(pm_spec, s)
    assert o.shape == (4,)
    back = envs.state_of_obs(pm_spec, o)
    assert np.array_equal(back.position, s.position)
    assert np.array_equal(back.velocity, s.velocity)
    o2 = envs.obs_of(wall_spec, s)
    assert o2.shape == (2,)


def _crosses(start: float, end: float, coord: float) -> bool:
    return (start - coord) * (end - coord) < 0


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["wall2d", "pointmass"]),
       start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       deltas=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=1, max_size=20))
def test_no_move_crosses_a_wall_or_leaves_the_box(kind, start, deltas):
    # a chain of _move substeps from any point of the box: the x leg (at the
    # old y) never passes through a vertical wall span, the y leg (at the new
    # x) never through a horizontal one, and every position stays in the box
    spec = envs.wall2d_spec() if kind == "wall2d" else envs.pointmass_spec()
    pos = np.array(start)
    for delta in deltas:
        new, _ = envs._move(spec, pos, np.array(delta))
        (x, y), (nx, ny) = pos, new
        for w in spec.walls:
            if w.axis == 0 and w.lo <= y <= w.hi:
                assert not _crosses(x, nx, w.coord), (pos, delta, w)
            if w.axis == 1 and w.lo <= nx <= w.hi:
                assert not _crosses(y, ny, w.coord), (pos, delta, w)
        assert np.all((new >= 0.0) & (new <= spec.size)), (pos, delta)
        pos = new


# starts on wall faces, their contact points, door and gap edges, box edges
_EDGES = [0.0, 1.0, 0.5, 0.5 - envs.CONTACT_EPS, 0.5 + envs.CONTACT_EPS, 0.4, 0.6,
          0.42, 0.58, 0.15, 0.35, 0.65, 0.85]
_coord = st.one_of(st.sampled_from(_EDGES), st.floats(0.0, 1.0))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["wall2d", "pointmass"]), frameskip=st.sampled_from([1, 5]),
       rows=st.lists(st.tuples(_coord, _coord, st.floats(-0.1, 0.1), st.floats(-0.1, 0.1),
                               st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                     min_size=1, max_size=8))
def test_a_batched_step_equals_the_one_state_step_of_each_row(kind, frameskip, rows):
    # actions up to 1.5 a_max, so the clamp of the action is covered too
    spec = (envs.wall2d_spec(frameskip) if kind == "wall2d"
            else envs.pointmass_spec(frameskip))
    rows = np.array(rows)
    pos, vel, act = rows[:, :2], rows[:, 2:4], rows[:, 4:] * spec.a_max
    batch = envs.step(spec, envs.EnvState(pos, vel), act)
    assert batch.position.shape == batch.velocity.shape == (len(rows), 2)
    for i in range(len(rows)):
        one = envs.step(spec, envs.EnvState(pos[i], vel[i]), act[i])
        assert np.array_equal(_bits(batch.position[i]), _bits(one.position)), rows[i]
        assert np.array_equal(_bits(batch.velocity[i]), _bits(one.velocity)), rows[i]


@pytest.mark.parametrize("seed", [1, 123, 99991])
@pytest.mark.parametrize("policy", envs.POLICIES)
@pytest.mark.parametrize("kind", ["wall2d", "pointmass"])
def test_lockstep_generation_equals_the_one_trajectory_reference(kind, policy, seed):
    spec = envs.wall2d_spec() if kind == "wall2d" else envs.pointmass_spec()
    for traj_len in (2, 13, 50):
        by_n = {}
        for n in (1, 2, 7, 64):
            got = envs.generate_dataset(spec, n, traj_len, policy, seed)
            want = reference_generation.generate_dataset(spec, n, traj_len, policy, seed)
            assert np.array_equal(_bits(got.obs), _bits(want.obs)), (n, traj_len)
            assert np.array_equal(_bits(got.actions), _bits(want.actions)), (n, traj_len)
            by_n[n] = got
        # a trajectory never depends on its batch-mates
        assert np.array_equal(by_n[7].obs, by_n[64].obs[:7])
        assert np.array_equal(by_n[7].actions, by_n[64].actions[:7])


@pytest.mark.parametrize("kind", ["wall2d", "pointmass"])
def test_the_state_shape_picks_the_move_kernel(kind, monkeypatch):
    # one state moves in Python floats only: the NumPy kernel would cost
    # MPC and every replay about 12x per step (180 against 14 us on Wall2D)
    spec = envs.wall2d_spec(3) if kind == "wall2d" else envs.pointmass_spec(3)
    calls = []
    for name in ("_move", "_move_rows"):
        def spy(*args, name=name, real=getattr(envs, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(envs, name, spy)
    envs.step(spec, envs.EnvState(np.array([0.3, 0.4]), np.zeros(2)), np.full(2, 0.01))
    assert calls == ["_move"] * 3
    calls.clear()
    envs.step(spec, envs.EnvState(np.full((4, 2), 0.3), np.zeros((4, 2))),
              np.full((4, 2), 0.01))
    assert calls == ["_move_rows"] * 3


def test_generate_dataset_takes_one_batched_step_per_time_step(wall_spec, monkeypatch):
    shapes = []
    real_step = envs.step

    def spy(spec, s, a):
        shapes.append(s.position.shape)
        return real_step(spec, s, a)

    monkeypatch.setattr(envs, "step", spy)
    envs.generate_dataset(wall_spec, 5, 8, "goal-seeking-noisy", seed=0)
    assert shapes == [(5, 2)] * 7

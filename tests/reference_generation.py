"""Dataset generation written out one trajectory and one scalar `envs.step`
at a time, the reference the lockstep `envs.generate_dataset` must match
bit for bit."""

import numpy as np

from wmplanlab import envs
from wmplanlab.data import Dataset
from wmplanlab.rng import generator


def _same_side(door, p, q) -> bool:
    return (p[door.axis] - door.coord) * (q[door.axis] - door.coord) > 0


def _goal_seek_action(spec, s, waypoint, rng):
    """Steer toward the waypoint, routing via the door when a wall blocks
    the straight line; uniform action noise on top."""
    pos = s.position
    target = waypoint
    if spec.kind == envs.WALL2D:
        door = spec.doors[0]
        gap_lo, gap_hi = door.lo + 0.02, door.hi - 0.02
        if not _same_side(door, pos, waypoint) and not (gap_lo <= pos[1] <= gap_hi):
            target = door.center
        gain = 1.0 / spec.frameskip
        drive = gain * (target - pos)
    else:
        drive = 4.0 * (target - pos) - 8.0 * s.velocity
    noise = rng.uniform(-0.5 * spec.a_max, 0.5 * spec.a_max, size=2)
    return np.clip(drive + noise, -spec.a_max, spec.a_max)


def generate_dataset(spec, n_traj, traj_len, policy, seed) -> Dataset:
    """`n_traj` trajectories of `traj_len` observations, each rolled on its
    own from generator(seed, "traj", i) with the single-state `envs.step`."""
    obs = np.empty((n_traj, traj_len, spec.obs_dim))
    actions = np.empty((n_traj, traj_len - 1, spec.action_dim))
    for i in range(n_traj):
        rng = generator(seed, "traj", i)
        s = envs._sample_start(spec, rng)
        obs[i, 0] = envs.obs_of(spec, s)
        waypoint = rng.uniform(0.0, spec.size, size=2)
        for t in range(traj_len - 1):
            if policy == "random":
                a = rng.uniform(-spec.a_max, spec.a_max, size=2)
            else:
                if t > 0 and (t % 12 == 0 or
                              np.linalg.norm(s.position - waypoint) < 0.05 * spec.size):
                    waypoint = rng.uniform(0.0, spec.size, size=2)
                a = _goal_seek_action(spec, s, waypoint, rng)
            actions[i, t] = a
            s = envs.step(spec, s, a)
            obs[i, t + 1] = envs.obs_of(spec, s)
    return Dataset(actions, obs=obs)

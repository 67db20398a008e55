"""Deterministic ground-truth dynamics for two 2D navigation environments.

Wall2D is position-controlled: two rooms in a unit box split by a vertical
wall with a door. PointMassMaze is a force-actuated, damped double
integrator in a 2x2 room grid with three doors. Both resolve collisions by
axis-separated clamp-and-slide against axis-aligned wall segments, so a
blocked axis is clamped at the wall face while the other axis still moves.

`step` runs one loop over the `frameskip` substeps for one state or a
batch, and one clamp-and-slide rule, `_slide`, moves both: the shape of the
position picks only its select. One state, `(2,)`, moves in Python floats
with a plain conditional (`_move`): the path of MPC, evaluation and every
replay, such as `visit`. A batch, `(N, 2)`, moves the same expressions on
(N,) columns with `np.where` (`_move_rows`), so each row keeps the bits of
the one-state path by construction. Each select is the fast one for its
caller: on one state the NumPy select costs about 12x (see `step`), while a
dataset of N trajectories takes T-1 batched steps in place of N(T-1)
one-state steps.

`generate_dataset` steps all N trajectories in lockstep. Each trajectory
still draws only from its own stream generator(seed, "traj", i), the same
numbers in the same order as when trajectories were rolled one at a time,
so a trajectory never depends on its batch-mates or on N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, sample_window
from .rng import generator

WALL2D = "wall2d"
POINTMASS = "pointmass"
POLICIES = ("random", "goal-seeking-noisy")  # dataset policies

# one logical env step = `frameskip` integration substeps with the same action
CONTACT_EPS = 1e-9
SUCCESS_RADIUS_FRAC = 0.05
POINTMASS_ACCEL = 0.01  # force-to-velocity gain per substep


@dataclass(frozen=True)
class Segment:
    """Axis-aligned wall or door: the line axis==0 is vertical (x = coord
    for y in [lo, hi]; a wall there blocks x motion); axis==1 horizontal."""

    axis: int
    coord: float
    lo: float
    hi: float

    @property
    def center(self) -> np.ndarray:
        mid = 0.5 * (self.lo + self.hi)
        return np.array([self.coord, mid]) if self.axis == 0 else np.array([mid, self.coord])


@dataclass(frozen=True)
class EnvSpec:
    kind: str
    size: float
    walls: tuple[Segment, ...]
    doors: tuple[Segment, ...]
    a_max: float
    damping: float = 0.0
    frameskip: int = 5

    def __post_init__(self):
        if self.frameskip < 1:
            raise ValueError("frameskip must be >= 1")

    @property
    def obs_dim(self) -> int:
        return 2 if self.kind == WALL2D else 4

    @property
    def action_dim(self) -> int:
        return 2


@dataclass(eq=False)
class EnvState:
    position: np.ndarray  # (2,), or (N, 2) for a batch of N states
    velocity: np.ndarray  # same shape as position


@dataclass(eq=False)
class TaskInstance:
    start: EnvState
    goal_obs: np.ndarray
    goal_state: EnvState  # held out: consumed only by the success predicate
    horizon_gap: int


def wall2d_spec(frameskip: int = 5) -> EnvSpec:
    """Unit box, vertical wall at x=0.5 with a door over y in [0.4, 0.6]."""
    walls = (Segment(0, 0.5, 0.0, 0.4), Segment(0, 0.5, 0.6, 1.0))
    doors = (Segment(0, 0.5, 0.4, 0.6),)
    return EnvSpec(WALL2D, 1.0, walls, doors, a_max=0.05, frameskip=frameskip)


def pointmass_spec(frameskip: int = 5) -> EnvSpec:
    """2x2 room grid with three doors; force-actuated with damping 0.1."""
    walls = (
        Segment(0, 0.5, 0.0, 0.15), Segment(0, 0.5, 0.35, 1.0),
        Segment(1, 0.5, 0.0, 0.15), Segment(1, 0.5, 0.35, 0.65), Segment(1, 0.5, 0.85, 1.0),
    )
    doors = (Segment(0, 0.5, 0.15, 0.35), Segment(1, 0.5, 0.15, 0.35),
             Segment(1, 0.5, 0.65, 0.85))
    return EnvSpec(POINTMASS, 1.0, walls, doors, a_max=1.0, damping=0.1,
                   frameskip=frameskip)


def spec_to_dict(spec: EnvSpec) -> dict:
    return {
        "kind": spec.kind,
        "size": spec.size,
        "walls": [[w.axis, w.coord, w.lo, w.hi] for w in spec.walls],
        "doors": [[d.axis, d.coord, d.lo, d.hi] for d in spec.doors],
        "a_max": spec.a_max,
        "damping": spec.damping,
        "frameskip": spec.frameskip,
    }


def _select(cond, a, b):
    """`np.where` for one state: `a` if `cond`, else `b`, in Python floats."""
    return a if cond else b


def _slide(spec: EnvSpec, axis: int, start, end, other, where):
    """One axis leg of a move: clamp the move from `start` to `end` along
    `axis` at the walls of that axis, in order, whose span holds `other`,
    then at the box; returns the new end and whether the leg was blocked.
    A move that would cross a solid wall span stops at the face minus a
    contact epsilon; box faces clamp exactly. The arguments are Python
    floats with `where` = `_select` for one state, or (N,) columns with
    `where` = `np.where` for a batch: one expression for one row or many."""
    blocked = False
    for w in spec.walls:
        if w.axis != axis:
            continue
        span = (w.lo <= other) & (other <= w.hi)
        fwd = span & (start < w.coord) & (w.coord <= end)
        back = span & (start > w.coord) & (w.coord >= end)
        end = where(fwd, w.coord - CONTACT_EPS, where(back, w.coord + CONTACT_EPS, end))
        blocked |= fwd | back
    low, high = end < 0.0, end > spec.size
    end = where(low, 0.0, where(high, spec.size, end))
    return end, blocked | low | high


def _move(spec: EnvSpec, pos: np.ndarray, delta: np.ndarray):
    """Axis-separated slide of one state: apply the x move, then the y move
    at the new x, in Python floats. Returns the new position and whether
    each axis was blocked, (bx, by)."""
    x, y = float(pos[0]), float(pos[1])
    nx, bx = _slide(spec, 0, x, x + float(delta[0]), y, _select)
    ny, by = _slide(spec, 1, y, y + float(delta[1]), nx, _select)
    return np.array([nx, ny]), (bx, by)


def _move_rows(spec: EnvSpec, pos: np.ndarray, delta: np.ndarray):
    """`_move` of every row of `pos` (N, 2) by the same row of `delta`: the
    same `_slide` on (N,) columns with `np.where` as the select, so each row
    equals `_move` of that row bit for bit; the blocked flags are two (N,)
    masks."""
    x, y = pos[:, 0], pos[:, 1]
    nx, bx = _slide(spec, 0, x, x + delta[:, 0], y, np.where)
    ny, by = _slide(spec, 1, y, y + delta[:, 1], nx, np.where)
    return np.stack([nx, ny], axis=1), (bx, by)


def step(spec: EnvSpec, s: EnvState, a) -> EnvState:
    """One logical env step: clamp the action, run frameskip substeps.

    `s` is one state (position and velocity of shape (2,), `a` of shape
    (2,)) or a batch of N states ((N, 2) each, `a` of shape (N, 2)); row i
    of a batched step equals the one-state step of row i bit for bit, as
    both move by `_slide`. The shape picks its select, the fast one for
    each caller: one Wall2D state took 13-14 us per step in Python floats
    (`_move`; PointMass 25-28 us) against 180 us as a (1, 2) batch on
    `_move_rows` (PointMass 350 us), about 12x, and a batch of 300 took
    190 us (PointMass 380 us) on `_move_rows`, where `_move` would run 300
    times (2-core Xeon, Python 3.11, NumPy 2.4.6, one BLAS thread).
    """
    rows = s.position.ndim == 2
    move = _move_rows if rows else _move
    a = np.clip(np.asarray(a, dtype=np.float64), -spec.a_max, spec.a_max)
    pos = s.position
    if spec.kind == WALL2D:
        for _ in range(spec.frameskip):
            pos, _ = move(spec, pos, a)
        return EnvState(pos, np.zeros(pos.shape))
    vel = s.velocity
    for _ in range(spec.frameskip):
        vel = (1.0 - spec.damping) * vel + POINTMASS_ACCEL * a
        pos, (bx, by) = move(spec, pos, vel)
        # a blocked axis stops
        if rows:
            vel = np.where(np.stack([bx, by], axis=1), 0.0, vel)
        elif bx or by:
            vel = np.array([0.0 if bx else float(vel[0]),
                            0.0 if by else float(vel[1])])
    return EnvState(pos, vel)


def visit(spec: EnvSpec, o1: np.ndarray, actions) -> np.ndarray:
    """The observations (H+1, d_o) that the H actions visit from `o1`: `o1`,
    then the observation after each `step` from `state_of_obs(spec, o1)`."""
    out = np.empty((len(actions) + 1, spec.obs_dim))
    out[0] = o1
    s = state_of_obs(spec, o1)
    for t, a in enumerate(actions, 1):
        s = step(spec, s, a)
        out[t] = obs_of(spec, s)
    return out


def obs_of(spec: EnvSpec, s: EnvState) -> np.ndarray:
    if spec.kind == WALL2D:
        return s.position.copy()
    return np.concatenate([s.position, s.velocity], axis=-1)


def state_of_obs(spec: EnvSpec, o: np.ndarray) -> EnvState:
    o = np.asarray(o, dtype=np.float64)
    if spec.kind == WALL2D:
        return EnvState(o[:2].copy(), np.zeros(2))
    return EnvState(o[:2].copy(), o[2:4].copy())


def success_radius(spec: EnvSpec) -> float:
    return SUCCESS_RADIUS_FRAC * spec.size


def success(spec: EnvSpec, s: EnvState, task: TaskInstance) -> bool:
    """Closed-ball goal test on position only (compared in squared form so
    the boundary case is exact)."""
    d = s.position - task.goal_state.position
    r = success_radius(spec)
    return float(d @ d) <= r * r


def _sample_start(spec: EnvSpec, rng: np.random.Generator) -> EnvState:
    margin = 0.02 * spec.size
    while True:
        pos = rng.uniform(margin, spec.size - margin, size=2)
        near_wall = any(
            abs(pos[w.axis] - w.coord) < margin and w.lo <= pos[1 - w.axis] <= w.hi
            for w in spec.walls)
        if not near_wall:
            return EnvState(pos, np.zeros(2))


def _goal_seek_rows(spec: EnvSpec, s: EnvState, waypoint: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    """Actions (N, 2) that steer each row of the batch `s` toward its
    waypoint, routing via the door when a wall blocks the straight line
    (Wall2D), plus uniform noise mapped from the draws `u` (N, 2) in [0, 1)."""
    pos = s.position
    if spec.kind == WALL2D:
        door = spec.doors[0]
        gap_lo, gap_hi = door.lo + 0.02, door.hi - 0.02
        same_side = (pos[:, door.axis] - door.coord) * (waypoint[:, door.axis] - door.coord) > 0
        in_gap = (gap_lo <= pos[:, 1]) & (pos[:, 1] <= gap_hi)
        target = np.where((~same_side & ~in_gap)[:, None], door.center, waypoint)
        gain = 1.0 / spec.frameskip
        drive = gain * (target - pos)
    else:
        drive = 4.0 * (waypoint - pos) - 8.0 * s.velocity
    noise = _uniform(u, -0.5 * spec.a_max, 0.5 * spec.a_max)
    return np.clip(drive + noise, -spec.a_max, spec.a_max)


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Map draws in [0, 1) to [lo, hi) as `Generator.uniform` does."""
    return lo + (hi - lo) * u


def _near_waypoint(spec: EnvSpec, pos: np.ndarray, waypoint: np.ndarray) -> np.ndarray:
    """Rows whose position is within 0.05 * size of the waypoint, decided
    by the `np.linalg.norm` of each row. The elementwise norm can differ
    from it in the last bit (BLAS computes the dot product), so rows within
    a hair of the threshold are decided by `np.linalg.norm` itself."""
    d = pos - waypoint
    dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    radius = 0.05 * spec.size
    for i in np.flatnonzero(np.abs(dist - radius) <= 1e-12 * radius):
        dist[i] = np.linalg.norm(d[i])
    return dist < radius


def generate_dataset(spec: EnvSpec, n_traj: int, traj_len: int, policy: str,
                     seed: int) -> Dataset:
    """Roll `n_traj` trajectories of `traj_len` observations under `policy`.

    policy "random" draws uniform actions; "goal-seeking-noisy" steers
    toward resampled waypoints with additive noise (and, in Wall2D, routes
    through the door), which yields wall-crossing demonstrations.

    All trajectories step in lockstep, one batched `step` per time step.
    Trajectory i takes its start, first waypoint and then all its further
    draws from generator(seed, "traj", i): the random policy's actions as
    one (traj_len - 1, 2) block; for the goal-seeking policy a block of
    4 (traj_len - 1) draws, the most it can use (a waypoint and a noise
    pair per step), read in order through a per-row cursor.
    """
    if n_traj < 1 or traj_len < 2:
        raise ValueError("need n_traj >= 1 and traj_len >= 2")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    T = traj_len - 1
    obs = np.empty((n_traj, traj_len, spec.obs_dim))
    actions = np.empty((n_traj, T, spec.action_dim))
    start = np.empty((n_traj, 2))
    waypoint = np.empty((n_traj, 2))
    seeking = policy == "goal-seeking-noisy"
    draws = np.empty((n_traj, 4 * T))
    for i in range(n_traj):
        rng = generator(seed, "traj", i)
        start[i] = _sample_start(spec, rng).position
        waypoint[i] = rng.uniform(0.0, spec.size, size=2)
        if seeking:
            draws[i] = rng.random(4 * T)
        else:
            actions[i] = rng.uniform(-spec.a_max, spec.a_max, size=(T, 2))
    s = EnvState(start, np.zeros_like(start))
    obs[:, 0] = obs_of(spec, s)
    rows = np.arange(n_traj)
    cursor = np.zeros(n_traj, dtype=np.intp)

    def take(which):  # the next two draws of each row in `which`
        u = draws[which[:, None], cursor[which, None] + (0, 1)]
        cursor[which] += 2
        return u

    for t in range(T):
        if seeking:
            if t > 0:
                redraw = rows if t % 12 == 0 else np.flatnonzero(
                    _near_waypoint(spec, s.position, waypoint))
                waypoint[redraw] = _uniform(take(redraw), 0.0, spec.size)
            actions[:, t] = _goal_seek_rows(spec, s, waypoint, take(rows))
        s = step(spec, s, actions[:, t])
        obs[:, t + 1] = obs_of(spec, s)
    return Dataset(actions, obs=obs)


def sample_task(spec: EnvSpec, data: Dataset, horizon_gap: int, seed: int) -> TaskInstance:
    """Draw start and goal from one stored trajectory, horizon_gap steps apart."""
    if data.obs is None:
        raise ValueError("task sampling needs observation trajectories")
    obs = sample_window(data, horizon_gap, generator(seed, "task")).obs
    goal_obs = obs[-1].copy()
    return TaskInstance(start=state_of_obs(spec, obs[0]), goal_obs=goal_obs,
                        goal_state=state_of_obs(spec, goal_obs),
                        horizon_gap=horizon_gap)


def cross_room(spec: EnvSpec, task: TaskInstance) -> bool:
    """Whether the task's start and goal lie on either side of the wall of
    the env's first door."""
    door = spec.doors[0]
    return (task.start.position[door.axis] - door.coord) * \
        (task.goal_state.position[door.axis] - door.coord) < 0

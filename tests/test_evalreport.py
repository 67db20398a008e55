import gc
import json
import os
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from wmplanlab import envs, evalreport, planners
from wmplanlab.data import sample_window
from wmplanlab.encoder import (encode, encode_dataset, make_identity,
                               make_random_fourier)
from wmplanlab.evalreport import (MODES, Cell, EvalReport, GapReport, TaskRow,
                                  emit_report, evaluate, landscape, load_report,
                                  total_variation, train_test_gap,
                                  wilson_interval)
from wmplanlab.planners import MpcConfig, PlanConfig, final_cost
from wmplanlab.rng import generator
from wmplanlab.worldmodel import init_world_model

from conftest import linear_model, rel_err
from reference_gap import simulated_wm_error


def _no_wall_spec():
    return envs.EnvSpec(envs.WALL2D, 1.0, (), (), a_max=0.05, frameskip=5)


def _perfect_setup():
    spec = _no_wall_spec()
    enc = make_identity(2)
    data = envs.generate_dataset(spec, 10, 10, "random", seed=0)
    model = linear_model(np.eye(2) * spec.frameskip)
    plan = PlanConfig(horizon=1, iterations=40, optimizer="sgd", eta=0.02,
                      a_max=spec.a_max)
    return spec, enc, data, model, plan


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038, abs=1e-3)
    assert hi == pytest.approx(0.5962, abs=1e-3)
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo > 0.6


def test_evaluate_perfect_model_full_success():
    spec, enc, data, model, plan = _perfect_setup()
    report = evaluate(spec, enc, {"perfect": model}, {"gbp": plan},
                      n_tasks=6, mode="open-loop", seed=3, data=data,
                      horizon_gap=1)
    (cell,) = report.cells
    assert cell.success_rate == 1.0
    assert cell.n_tasks == 6
    assert len(cell.rows) == 6


def test_evaluate_rerun_is_identical():
    spec, enc, data, model, plan = _perfect_setup()
    kwargs = dict(n_tasks=4, mode="open-loop", seed=5, data=data, horizon_gap=1)
    r1 = evaluate(spec, enc, {"m": model}, {"p": plan}, **kwargs)
    r2 = evaluate(spec, enc, {"m": model}, {"p": plan}, **kwargs)
    assert r1.task_hash == r2.task_hash
    for c1, c2 in zip(r1.cells, r2.cells):
        assert [r.success for r in c1.rows] == [r.success for r in c2.rows]
        assert [r.final_loss for r in c1.rows] == [r.final_loss for r in c2.rows]


def test_evaluate_draws_each_task_once(monkeypatch):
    spec, enc, data, model, plan = _perfect_setup()
    draw = evalreport._draw_task
    drawn = []

    def counting_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(evalreport, "_draw_task", counting_draw)
    report = evaluate(spec, enc, {"m": model}, {"p": plan}, n_tasks=3,
                      mode="open-loop", seed=5, data=data, horizon_gap=1)
    assert len(drawn) == 3
    assert report.task_hash == evalreport._task_fingerprint(drawn)


def test_evaluate_draws_every_task_before_it_plans_one(monkeypatch):
    # a grid that cannot draw its last task fails before its first plan
    spec, enc, data, model, plan = _perfect_setup()
    draw = evalreport._draw_task
    planned = []

    def draw_but_task_2(spec, data, horizon_gap, seed, t, require_cross_room):
        if t == 2:
            raise evalreport.NoCrossRoomTask("no cross-room task in 200 draws")
        return draw(spec, data, horizon_gap, seed, t, require_cross_room)

    monkeypatch.setattr(evalreport, "_draw_task", draw_but_task_2)
    monkeypatch.setattr(evalreport, "mpc", lambda *args, **kwargs: planned.append(args))
    with pytest.raises(evalreport.NoCrossRoomTask):
        evaluate(spec, enc, {"m": model}, {"p": plan}, n_tasks=3, mode="mpc",
                 seed=5, data=data, horizon_gap=1)
    assert planned == []


def test_evaluate_parallel_matches_serial():
    spec, enc, data, model, plan = _perfect_setup()
    kwargs = dict(n_tasks=4, mode="open-loop", seed=7, data=data, horizon_gap=1)
    serial = evaluate(spec, enc, {"m": model}, {"p": plan}, workers=1, **kwargs)
    parallel = evaluate(spec, enc, {"m": model}, {"p": plan}, workers=2, **kwargs)
    assert serial.task_hash == parallel.task_hash
    for c1, c2 in zip(serial.cells, parallel.cells):
        assert [r.success for r in c1.rows] == [r.success for r in c2.rows]
        assert [r.final_loss for r in c1.rows] == [r.final_loss for r in c2.rows]


def test_evaluate_mpc_mode_runs():
    spec, enc, data, model, plan = _perfect_setup()
    report = evaluate(spec, enc, {"m": model}, {"p": plan}, n_tasks=2,
                      mode="mpc", seed=1, data=data, horizon_gap=1,
                      mpc_cfg=MpcConfig(steps=2, plan_iters=20, eta=None))
    assert report.cells[0].success_rate == 1.0


def test_a_task_that_starts_at_its_goal_gets_the_same_row_in_both_modes(monkeypatch):
    # open-loop evaluation is the one-plan MPC episode, which plans nothing
    # for a start that is already a success
    spec, enc, data, model, plan = _perfect_setup()
    start = envs.EnvState(np.array([0.3, 0.4]), np.zeros(2))
    goal_obs = envs.obs_of(spec, start)
    task = envs.TaskInstance(start, goal_obs, envs.state_of_obs(spec, goal_obs), 1)
    monkeypatch.setattr(evalreport, "_draw_task", lambda *args: task)
    monkeypatch.setattr(planners, "gbp",
                        lambda *args: pytest.fail("planned a task that starts at its goal"))
    rows = {}
    for mode in MODES:
        report = evaluate(spec, enc, {"m": model}, {"p": plan}, n_tasks=1,
                          mode=mode, seed=0, data=data, horizon_gap=1)
        (cell,) = report.cells
        assert cell.successes == 1 and cell.mean_trace == []
        # no plan, so no plan seconds
        assert report.timing == [{"model": "m", "planner": "p",
                                  "mean_plan_seconds": 0.0, "plan_seconds": [0.0]}]
        rows[mode] = cell.rows
    assert repr(rows["open-loop"]) == repr(rows["mpc"]) == repr(
        [TaskRow(0, True, float("nan"))])


def test_a_task_that_fails_in_a_cell_gets_a_failed_row_and_nan_seconds(monkeypatch):
    spec, enc, data, model, plan = _perfect_setup()

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(evalreport, "mpc", crash)
    with pytest.warns(UserWarning, match=r"task 0 failed in cell \(m, p\): boom"):
        report = evaluate(spec, enc, {"m": model}, {"p": plan}, n_tasks=1,
                          mode="mpc", seed=0, data=data, horizon_gap=1)
    assert repr(report.cells[0].rows) == repr([TaskRow(0, False, float("nan"))])
    (timing,) = report.timing
    assert np.isnan(timing["mean_plan_seconds"])
    assert np.isnan(timing["plan_seconds"]).all() and len(timing["plan_seconds"]) == 1


def test_evaluate_keeps_no_input_alive_after_a_serial_run():
    spec, enc, data, model, plan = _perfect_setup()
    refs = weakref.ref(data), weakref.ref(model)
    evaluate(spec, enc, {"m": model}, {"p": plan}, n_tasks=2, mode="open-loop",
             seed=0, data=data, horizon_gap=1, workers=1)
    del data, model
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _no_nan_token(token):
    raise AssertionError(f"{token} token in JSON")


def test_a_report_with_nan_values_writes_null_and_reads_back_nan(
        monkeypatch, tmp_path):
    # task 0 starts inside its goal, so cell (m, p) plans nothing for it and
    # its final loss is NaN; every task of cell (m, boom) fails, so its
    # seconds and their mean are NaN
    spec, enc, data, model, plan = _perfect_setup()
    boom = replace(plan)  # the same settings, told apart by identity
    start = envs.EnvState(np.array([0.3, 0.4]), np.zeros(2))
    goal_obs = envs.obs_of(spec, start)
    at_goal = envs.TaskInstance(start, goal_obs, envs.state_of_obs(spec, goal_obs), 1)
    real_draw, real_mpc = evalreport._draw_task, evalreport.mpc

    def draw(spec, data, horizon_gap, seed, t, require_cross_room):
        return at_goal if t == 0 else real_draw(spec, data, horizon_gap, seed, t,
                                                 require_cross_room)

    def mpc(spec, model, enc, task, planner, *args, **kwargs):
        if planner is boom:
            raise RuntimeError("boom")
        return real_mpc(spec, model, enc, task, planner, *args, **kwargs)

    monkeypatch.setattr(evalreport, "_draw_task", draw)
    monkeypatch.setattr(evalreport, "mpc", mpc)
    with pytest.warns(UserWarning, match="boom"):
        report = evaluate(spec, enc, {"m": model}, {"p": plan, "boom": boom},
                          n_tasks=2, mode="open-loop", seed=0, data=data,
                          horizon_gap=1)
    assert np.isnan(report.cells[0].rows[0].final_loss)
    assert np.isnan(report.timing[1]["mean_plan_seconds"])
    emit_report(report, tmp_path)
    for name in ("report.json", "timing.json"):
        text = (tmp_path / name).read_text()
        json.loads(text, parse_constant=_no_nan_token)
        assert "null" in text, name
    # NaN != NaN, so compare the two as JSON text, where NaN is a token
    back = load_report(tmp_path)
    assert (json.dumps(asdict(back), sort_keys=True)
            == json.dumps(asdict(report), sort_keys=True))


def test_evaluate_require_cross_room(wall_spec):
    data = envs.generate_dataset(wall_spec, 10, 30, "goal-seeking-noisy", seed=0)
    drawn = {flag: [evalreport._draw_task(wall_spec, data, 10, 2, t, flag)
                    for t in range(6)] for flag in (False, True)}
    assert all(envs.cross_room(wall_spec, task) for task in drawn[True])
    assert not all(envs.cross_room(wall_spec, task) for task in drawn[False])
    plan = PlanConfig(horizon=1, iterations=2, a_max=wall_spec.a_max)
    report = evaluate(wall_spec, make_identity(2), {"m": linear_model(np.eye(2))},
                      {"p": plan}, n_tasks=6, mode="open-loop", seed=2, data=data,
                      horizon_gap=10, require_cross_room=True)
    assert report.task_hash == evalreport._task_fingerprint(drawn[True])


def test_evaluate_validates_args():
    spec, enc, data, model, plan = _perfect_setup()
    with pytest.raises(ValueError):
        evaluate(spec, enc, {"m": model}, {"p": plan}, n_tasks=0,
                 mode="open-loop", seed=0, data=data)
    with pytest.raises(ValueError):
        evaluate(spec, enc, {"m": model}, {"p": plan}, n_tasks=1,
                 mode="closed", seed=0, data=data)


def test_gap_zero_when_planner_reproduces_expert(wall_spec, monkeypatch):
    raw = envs.generate_dataset(wall_spec, 6, 12, "goal-seeking-noisy", seed=2)
    enc = make_identity(2)
    data = encode_dataset(enc, raw)
    f = init_world_model(2, 2, hidden=(8,), seed=0)
    windows = {}
    for obs, actions in zip(data.obs, data.actions):
        for off in range(len(actions)):
            windows[obs[off].tobytes()] = actions

    def fake_gbp(model, z1, z_goal, cfg, seed):
        actions = windows[np.asarray(z1).tobytes()]
        from wmplanlab.planners import PlanResult
        H = cfg.horizon
        # identity encoder: z1 equals the stored observation
        key_actions = None
        for obs, actions in zip(data.obs, data.actions):
            for off in range(len(actions) - H + 1):
                if np.array_equal(obs[off], z1):
                    key_actions = actions[off:off + H]
        return PlanResult(key_actions, [0.0], 0.0, 1, 0.0)

    monkeypatch.setattr(evalreport, "gbp", fake_gbp)
    cfg = PlanConfig(horizon=5, iterations=1, a_max=wall_spec.a_max)
    report = train_test_gap(f, wall_spec, enc, data, cfg, n=4, seed=0)
    assert report.difference == 0.0
    assert report.expert_errors == report.planned_errors


@pytest.mark.parametrize("kind, policy", [(envs.WALL2D, "goal-seeking-noisy"),
                                          (envs.POINTMASS, "random")])
def test_gap_errors_match_the_simulated_reference(monkeypatch, kind, policy):
    # preset shapes: d_z 64 random-fourier, hidden 128 x 128, H 25
    spec = envs.wall2d_spec() if kind == envs.WALL2D else envs.pointmass_spec()
    enc = make_random_fourier(spec.obs_dim, d_z=64, sigma=4.0, seed=0)
    data = encode_dataset(enc, envs.generate_dataset(spec, 6, 50, policy, seed=1))
    f = init_world_model(64, spec.action_dim, hidden=(128, 128), seed=2)
    H, n, seed = 25, 8, 3
    cfg = PlanConfig(horizon=H, iterations=3, optimizer="sgd", eta=1.0,
                     a_max=spec.a_max)
    gbp, plans = evalreport.gbp, []

    def recording_gbp(model, z1, z_goal, plan_cfg, plan_seed):
        plans.append((z1, z_goal, gbp(model, z1, z_goal, plan_cfg, plan_seed)))
        return plans[-1][2]

    monkeypatch.setattr(evalreport, "gbp", recording_gbp)
    report = train_test_gap(f, spec, enc, data, cfg, n, seed=seed)
    expert, planned = [], []
    for j, (z1, z_goal, pr) in enumerate(plans):
        window = sample_window(data, H, generator(seed, "gap", j))
        assert np.array_equal(z1, encode(enc, window.obs[0]))
        assert np.array_equal(z_goal, encode(enc, window.obs[H]))
        s1 = envs.state_of_obs(spec, window.obs[0])
        expert.append(simulated_wm_error(f, enc, spec, s1, window.actions).mean())
        planned.append(simulated_wm_error(f, enc, spec, s1, pr.actions).mean())
    assert len(plans) == n
    assert np.array_equal(report.expert_errors, expert)
    assert np.array_equal(report.planned_errors, planned)


def test_gap_report_fields(wall_spec):
    raw = envs.generate_dataset(wall_spec, 5, 10, "goal-seeking-noisy", seed=3)
    enc = make_identity(2)
    data = encode_dataset(enc, raw)
    f = init_world_model(2, 2, hidden=(8,), seed=1)
    cfg = PlanConfig(horizon=4, iterations=5, optimizer="sgd", eta=0.5,
                     a_max=wall_spec.a_max)
    report = train_test_gap(f, wall_spec, enc, data, cfg, n=3, seed=1)
    assert report.n == 3
    assert report.mean_expert >= 0 and report.mean_planned >= 0
    assert report.difference == pytest.approx(report.mean_expert - report.mean_planned)


def test_landscape_grid_anchors(wall_spec):
    raw = envs.generate_dataset(wall_spec, 4, 10, "goal-seeking-noisy", seed=5)
    enc = make_random_fourier(2, d_z=16, seed=0)
    data = encode_dataset(enc, raw)
    f1 = init_world_model(16, 2, hidden=(8,), seed=1)
    f2 = init_world_model(16, 2, hidden=(8,), seed=2)
    window = sample_window(data, 4, generator(0, "window"))
    cfg = PlanConfig(horizon=4, iterations=10, optimizer="adam", eta=0.05,
                     a_max=wall_spec.a_max)
    # R=11 over [-1.25, 1.25] includes u,v in {0, 1} exactly
    pair = landscape(f1, f2, window, cfg, resolution=11, seed=4)
    coeffs = np.linspace(-1.25, 1.25, 11)
    i0 = int(np.where(coeffs == 0.0)[0][0])
    i1 = int(np.where(coeffs == 1.0)[0][0])
    gt_base = pair.anchors["loss_gt_baseline"]
    assert pair.baseline.values[i0][i0] == pytest.approx(gt_base, rel=1e-12)
    assert pair.adversarial.values[i0][i0] == pytest.approx(
        pair.anchors["loss_gt_adversarial"], rel=1e-12)
    assert pair.baseline.values[i1][i0] == pytest.approx(
        pair.anchors["loss_gbp_baseline"], rel=1e-12)
    # both grids span identical evaluation points
    assert pair.baseline.alpha == pair.adversarial.alpha
    assert pair.baseline.beta == pair.adversarial.beta
    assert pair.baseline.c_min == pair.adversarial.c_min


def test_landscape_grid_matches_per_point_scoring(wall_spec):
    raw = envs.generate_dataset(wall_spec, 4, 10, "goal-seeking-noisy", seed=5)
    enc = make_random_fourier(2, d_z=16, seed=0)
    data = encode_dataset(enc, raw)
    models = {"baseline": init_world_model(16, 2, hidden=(8,), seed=1),
              "adversarial": init_world_model(16, 2, hidden=(8,), seed=2)}
    window = sample_window(data, 4, generator(0, "window"))
    cfg = PlanConfig(horizon=4, iterations=10, optimizer="adam", eta=0.05,
                     a_max=wall_spec.a_max)
    pair = landscape(models["baseline"], models["adversarial"], window, cfg,
                     resolution=7, seed=4)
    coeffs = np.linspace(-1.25, 1.25, 7)
    for name, model in models.items():
        grid = getattr(pair, name)
        alpha = np.reshape(grid.alpha, (4, 2))
        beta = np.reshape(grid.beta, (4, 2))
        for i, u in enumerate(coeffs):
            for j, v in enumerate(coeffs):
                a = window.actions + u * alpha + v * beta
                alone = final_cost(model, window.latents[0], a, window.latents[4])
                assert rel_err(grid.values[i][j], alone) <= 1e-12
        # the anchors stay single-sequence costs, to the bit
        assert pair.anchors[f"loss_gt_{name}"] == final_cost(
            model, window.latents[0], window.actions, window.latents[4])


def test_landscape_warns_on_degenerate_axis(wall_spec):
    raw = envs.generate_dataset(wall_spec, 3, 8, "random", seed=6)
    enc = make_identity(2)
    data = encode_dataset(enc, raw)
    f = init_world_model(2, 2, hidden=(8,), seed=3)
    window = sample_window(data, 3, generator(1, "window"))
    # a vanishing step keeps both plans at the seed's start; planting the
    # ground truth there makes both axes zero
    window = window._replace(
        actions=generator(2, "landscape-init").standard_normal((3, 2)))
    cfg = PlanConfig(horizon=3, iterations=1, optimizer="adam", eta=1e-12)
    with pytest.warns(UserWarning, match="degenerate"):
        pair = landscape(f, f, window, cfg, resolution=5, seed=2)
    assert len(pair.baseline.values) == 5


def test_total_variation_hand_example():
    assert total_variation([[0.0, 1.0], [2.0, 3.0]]) == 6.0
    assert total_variation(np.zeros((4, 4))) == 0.0


def _tiny_report():
    rows = [TaskRow(0, True, 1.25), TaskRow(1, False, float(2.5))]
    cell = Cell(model="m", planner="p", mode="open-loop", n_tasks=2,
                successes=1, success_rate=0.5, wilson_lo=0.1, wilson_hi=0.9,
                mean_trace=[2.0, 1.0], rows=rows)
    timing = [{"model": "m", "planner": "p", "mean_plan_seconds": 0.625,
               "plan_seconds": [0.5, 0.75]}]
    return EvalReport(schema=evalreport.REPORT_SCHEMA, mode="open-loop",
                      n_tasks=2, master_seed=7, task_hash="abc",
                      config_hash="def", cells=[cell], timing=timing)


def test_emit_report_roundtrip(tmp_path):
    report = _tiny_report()
    assert emit_report(report, tmp_path / "out") is None
    assert sorted(os.listdir(tmp_path / "out")) == ["report.csv", "report.json",
                                                   "timing.json"]
    back = load_report(tmp_path / "out")
    assert back == report
    # timing lives outside the canonical report json
    with open(os.path.join(tmp_path, "out", "report.json")) as fh:
        body = json.load(fh)
    assert "plan_seconds" not in json.dumps(body)
    with open(os.path.join(tmp_path, "out", "timing.json")) as fh:
        assert json.load(fh) == {"cells": report.timing}
    csv_lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    # wall-clock seconds go to timing.json only, so report.csv reruns byte-identically
    assert csv_lines[0] == "model,planner,mode,task_id,success,final_loss"
    assert len(csv_lines) == 3


def test_emit_empty_report(tmp_path):
    report = EvalReport(schema=evalreport.REPORT_SCHEMA, mode="mpc", n_tasks=0,
                        master_seed=0, task_hash="", config_hash="", cells=[],
                        timing=[])
    emit_report(report, tmp_path / "empty")
    back = load_report(tmp_path / "empty")
    assert back == report
    csv_lines = (tmp_path / "empty" / "report.csv").read_text().splitlines()
    assert len(csv_lines) == 1  # header only


def test_emit_gap_report(tmp_path):
    report = GapReport(n=2, mean_expert=1.0, mean_planned=2.0, difference=-1.0,
                       expert_errors=[0.5, 1.5], planned_errors=[1.5, 2.5])
    emit_report(report, tmp_path / "gap")
    with open(tmp_path / "gap" / "gap.json") as fh:
        body = json.load(fh)
    assert body["difference"] == -1.0
    lines = (tmp_path / "gap" / "gap.csv").read_text().splitlines()
    assert len(lines) == 3


def test_emit_landscape_csv_has_r_squared_rows(tmp_path, wall_spec):
    raw = envs.generate_dataset(wall_spec, 3, 8, "random", seed=7)
    enc = make_identity(2)
    data = encode_dataset(enc, raw)
    f1 = init_world_model(2, 2, hidden=(8,), seed=1)
    f2 = init_world_model(2, 2, hidden=(8,), seed=2)
    window = sample_window(data, 3, generator(2, "window"))
    cfg = PlanConfig(horizon=3, iterations=2, a_max=wall_spec.a_max)
    pair = landscape(f1, f2, window, cfg, resolution=6, seed=3)
    emit_report(pair, tmp_path / "ls")
    for name in ("baseline", "adversarial"):
        lines = (tmp_path / "ls" / f"landscape_{name}.csv").read_text().splitlines()
        assert lines[0] == "u,v,loss"
        assert len(lines) == 1 + 36  # header + R^2 rows
    assert os.path.exists(tmp_path / "ls" / "landscape.json")


def test_emit_rejects_unknown_type(tmp_path):
    with pytest.raises(TypeError):
        emit_report({"not": "a report"}, tmp_path / "x")

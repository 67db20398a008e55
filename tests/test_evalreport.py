import json
import os

import numpy as np
import pytest

from wmplanlab import envs, evalreport
from wmplanlab.data import Dataset
from wmplanlab.encoder import encode, encode_dataset, make_identity, make_random_fourier
from wmplanlab.evalreport import (Cell, EvalReport, GapReport, TaskRow,
                                  emit_report, evaluate, expert_window,
                                  landscape, load_report, total_variation,
                                  train_probe_decoder, train_test_gap,
                                  wilson_interval, decode, decode_rollout_csv)
from wmplanlab.planners import MpcConfig, PlanConfig, PlannerSpec, final_cost
from wmplanlab.worldmodel import init_world_model, rollout_model

from conftest import linear_model, rel_err


def _no_wall_spec():
    return envs.EnvSpec(envs.WALL2D, 1.0, (), (), a_max=0.05, frameskip=5)


def _perfect_setup():
    spec = _no_wall_spec()
    enc = make_identity(2)
    data = envs.generate_dataset(spec, 10, 10, "random", seed=0)
    model = linear_model(np.eye(2) * spec.frameskip)
    pspec = PlannerSpec("gbp", horizon=1, plan=PlanConfig(
        horizon=1, iterations=40, optimizer="sgd", eta=0.02,
        a_max=spec.a_max, seed=0))
    return spec, enc, data, model, pspec


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038, abs=1e-3)
    assert hi == pytest.approx(0.5962, abs=1e-3)
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo > 0.6


def test_evaluate_perfect_model_full_success():
    spec, enc, data, model, pspec = _perfect_setup()
    report = evaluate(spec, enc, {"perfect": model}, {"gbp": pspec},
                      n_tasks=6, mode="open-loop", seed=3, data=data,
                      horizon_gap=1)
    (cell,) = report.cells
    assert cell.success_rate == 1.0
    assert cell.n_tasks == 6
    assert len(cell.rows) == 6


def test_evaluate_rerun_is_identical():
    spec, enc, data, model, pspec = _perfect_setup()
    kwargs = dict(n_tasks=4, mode="open-loop", seed=5, data=data, horizon_gap=1)
    r1 = evaluate(spec, enc, {"m": model}, {"p": pspec}, **kwargs)
    r2 = evaluate(spec, enc, {"m": model}, {"p": pspec}, **kwargs)
    assert r1.task_hash == r2.task_hash
    for c1, c2 in zip(r1.cells, r2.cells):
        assert [r.success for r in c1.rows] == [r.success for r in c2.rows]
        assert [r.final_loss for r in c1.rows] == [r.final_loss for r in c2.rows]


def test_evaluate_draws_each_task_once(monkeypatch):
    spec, enc, data, model, pspec = _perfect_setup()
    draw = evalreport._draw_task
    drawn = []

    def counting_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(evalreport, "_draw_task", counting_draw)
    report = evaluate(spec, enc, {"m": model}, {"p": pspec}, n_tasks=3,
                      mode="open-loop", seed=5, data=data, horizon_gap=1)
    assert len(drawn) == 3
    assert report.task_hash == evalreport._task_fingerprint(drawn)


def test_evaluate_parallel_matches_serial():
    spec, enc, data, model, pspec = _perfect_setup()
    kwargs = dict(n_tasks=4, mode="open-loop", seed=7, data=data, horizon_gap=1)
    serial = evaluate(spec, enc, {"m": model}, {"p": pspec}, workers=1, **kwargs)
    parallel = evaluate(spec, enc, {"m": model}, {"p": pspec}, workers=2, **kwargs)
    assert serial.task_hash == parallel.task_hash
    for c1, c2 in zip(serial.cells, parallel.cells):
        assert [r.success for r in c1.rows] == [r.success for r in c2.rows]
        assert [r.final_loss for r in c1.rows] == [r.final_loss for r in c2.rows]


def test_evaluate_mpc_mode_runs():
    spec, enc, data, model, pspec = _perfect_setup()
    report = evaluate(spec, enc, {"m": model}, {"p": pspec}, n_tasks=2,
                      mode="mpc", seed=1, data=data, horizon_gap=1,
                      mpc_cfg=MpcConfig(steps=2, plan_iters=20, eta=None))
    assert report.cells[0].success_rate == 1.0


def test_evaluate_task_predicate():
    spec, enc, data, model, pspec = _perfect_setup()
    right_half = lambda task: task.goal_state.position[0] > 0.5
    report = evaluate(spec, enc, {"m": model}, {"p": pspec}, n_tasks=3,
                      mode="open-loop", seed=2, data=data, horizon_gap=1,
                      task_predicate=right_half)
    assert report.n_tasks == 3


def test_evaluate_validates_args():
    spec, enc, data, model, pspec = _perfect_setup()
    with pytest.raises(ValueError):
        evaluate(spec, enc, {"m": model}, {"p": pspec}, n_tasks=0,
                 mode="open-loop", seed=0, data=data)
    with pytest.raises(ValueError):
        evaluate(spec, enc, {"m": model}, {"p": pspec}, n_tasks=1,
                 mode="closed", seed=0, data=data)


def test_gap_zero_when_planner_reproduces_expert(wall_spec, monkeypatch):
    raw = envs.generate_dataset(wall_spec, 6, 12, "goal-seeking-noisy", seed=2)
    enc = make_identity(2)
    data = encode_dataset(enc, raw)
    f = init_world_model(2, 2, hidden=(8,), seed=0)
    windows = {}
    for traj in data.trajectories:
        for off in range(len(traj)):
            windows[traj.obs[off].tobytes()] = traj.actions

    def fake_gbp(model, z1, z_goal, cfg):
        actions = windows[np.asarray(z1).tobytes()]
        from wmplanlab.planners import PlanResult
        H = cfg.horizon
        # identity encoder: z1 equals the stored observation
        key_actions = None
        for traj in data.trajectories:
            for off in range(len(traj) - H + 1):
                if np.array_equal(traj.obs[off], z1):
                    key_actions = traj.actions[off:off + H]
        return PlanResult(key_actions, [0.0], 0.0, 1, 0.0)

    monkeypatch.setattr(evalreport, "gbp", fake_gbp)
    cfg = PlanConfig(horizon=5, iterations=1, a_max=wall_spec.a_max)
    report = train_test_gap(f, wall_spec, enc, data, cfg, n=4, seed=0)
    assert report.difference == 0.0
    assert report.expert_errors == report.planned_errors


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
    window = expert_window(data, enc, H=4, seed=0)
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
    window = expert_window(data, enc, H=4, seed=0)
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
                a = window.actions_gt + u * alpha + v * beta
                alone = final_cost(model, window.z1, a, window.z_goal)
                assert rel_err(grid.values[i][j], alone) <= 1e-12
        # the anchors stay single-sequence costs, to the bit
        assert pair.anchors[f"loss_gt_{name}"] == final_cost(
            model, window.z1, window.actions_gt, window.z_goal)


def test_landscape_warns_on_degenerate_axis(wall_spec):
    raw = envs.generate_dataset(wall_spec, 3, 8, "random", seed=6)
    enc = make_identity(2)
    data = encode_dataset(enc, raw)
    f = init_world_model(2, 2, hidden=(8,), seed=3)
    window = expert_window(data, enc, H=3, seed=1)
    cfg = PlanConfig(horizon=3, iterations=1, a_max=wall_spec.a_max)
    # planting the init at the ground truth makes both axes zero
    with pytest.warns(UserWarning, match="degenerate"):
        pair = landscape(f, f, window, cfg, resolution=5, seed=2,
                         a_init=window.actions_gt)
    assert len(pair.baseline.values) == 5


def test_total_variation_hand_example():
    assert total_variation([[0.0, 1.0], [2.0, 3.0]]) == 6.0
    assert total_variation(np.zeros((4, 4))) == 0.0


def test_probe_identity_encoder(wall_spec):
    data = envs.generate_dataset(wall_spec, 20, 10, "random", seed=0)
    probe = train_probe_decoder(make_identity(2), data)
    assert probe.rmse < 1e-8
    assert np.allclose(probe.W, np.eye(2), atol=1e-6)


def test_probe_random_fourier_position_reconstruction(wall_spec):
    # frozen pilot measurement: rmse ~6e-7 on this config, bound 0.02
    data = envs.generate_dataset(wall_spec, 100, 30, "goal-seeking-noisy", seed=0)
    enc = make_random_fourier(2, d_z=64, sigma=4.0, seed=0)
    probe = train_probe_decoder(enc, data)
    assert probe.rmse < 0.02


def test_probe_decodes_rollout_to_csv(tmp_path, wall_spec):
    data = envs.generate_dataset(wall_spec, 10, 8, "random", seed=1)
    enc = make_random_fourier(2, d_z=32, seed=0)
    probe = train_probe_decoder(enc, data)
    f = init_world_model(32, 2, hidden=(8,), seed=0)
    z1 = encode(enc, data.trajectories[0].obs[0])
    latents = rollout_model(f, z1, data.trajectories[0].actions)
    path = tmp_path / "rollout.csv"
    decode_rollout_csv(probe, latents, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,obs_0,obs_1"
    assert len(lines) == 1 + len(latents)


def _tiny_report():
    rows = [TaskRow(0, True, 0.5, 1.25), TaskRow(1, False, 0.75, float(2.5))]
    cell = Cell(model="m", planner="p", mode="open-loop", n_tasks=2,
                successes=1, success_rate=0.5, wilson_lo=0.1, wilson_hi=0.9,
                mean_plan_seconds=0.625, mean_trace=[2.0, 1.0], rows=rows)
    return EvalReport(schema=evalreport.REPORT_SCHEMA, mode="open-loop",
                      n_tasks=2, master_seed=7, task_hash="abc",
                      config_hash="def", cells=[cell])


def test_emit_report_roundtrip(tmp_path):
    report = _tiny_report()
    written = emit_report(report, tmp_path / "out")
    assert any(p.endswith("report.json") for p in written)
    assert any(p.endswith("timing.json") for p in written)
    back = load_report(tmp_path / "out")
    assert back == report
    # timing lives outside the canonical report json
    with open(os.path.join(tmp_path, "out", "report.json")) as fh:
        body = json.load(fh)
    assert "plan_seconds" not in json.dumps(body)
    csv_lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    # wall-clock seconds go to timing.json only, so report.csv reruns byte-identically
    assert csv_lines[0] == "model,planner,mode,task_id,success,final_loss"
    assert len(csv_lines) == 3


def test_emit_empty_report(tmp_path):
    report = EvalReport(schema=evalreport.REPORT_SCHEMA, mode="mpc", n_tasks=0,
                        master_seed=0, task_hash="", config_hash="", cells=[])
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
    window = expert_window(data, enc, H=3, seed=2)
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

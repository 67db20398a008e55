"""Tests of the benchmark itself, at the smallest input size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("pipeline-train", "mpc-gbp", "plan-sampling")
# the workload each layer group is chosen to stress
HEAVY = {"per-sequence tape": "mpc-gbp", "batched tape": "pipeline-train",
         "numpy forward and sampling": "plan-sampling",
         "env and encoder": "pipeline-train", "io": "pipeline-train"}


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace), "--scale", "tiny"])
    assert code == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


@pytest.fixture(scope="module")
def traced() -> dict:
    return {w: _run(w, 1) for w in WORKLOADS}


def _check_result(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    lines = _run(workload, 0)
    assert lines[0]["machine"]["workers"] == 1
    assert lines[0]["machine"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    _check_result(lines[-1], _bench()["end_to_end"])
    assert all(v["value"] > 0 for v in lines[-1]["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(traced):
    expected = _bench()["per_layer"]
    assert [m["name"] for m in expected] == list(tracing.metric_units())
    for lines in traced.values():
        _check_result(lines[-1], expected)
        assert any("layer_groups" in line for line in lines)


def test_each_layer_group_runs_on_its_heavy_workload(traced):
    for group, workload in HEAVY.items():
        metrics = traced[workload][-1]["metrics"]
        calls = sum(metrics[f"{layer}.calls"]["value"]
                    for layer in tracing.GROUPS[group]["layers"])
        assert calls > 0, (group, workload)


def test_planning_workloads_keep_to_their_code_path(traced):
    mpc_gbp = traced["mpc-gbp"][-1]["metrics"]
    sampling = traced["plan-sampling"][-1]["metrics"]
    assert mpc_gbp["worldmodel.predict.calls"]["value"] == 0
    assert mpc_gbp["diffcore.grad.calls"]["value"] > 0
    assert sampling["diffcore.grad.calls"]["value"] == 0
    assert sampling["worldmodel.predict.calls"]["value"] > 0


def _bindings() -> dict:
    import wmplanlab.worldmodel

    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "wmplanlab" or name.startswith("wmplanlab."):
            for key, value in vars(module).items():
                snap[(name, key)] = value
    for key, value in vars(wmplanlab.worldmodel.WorldModel).items():
        snap[("WorldModel", key)] = value
    return snap


def test_tracer_patches_every_binding_and_restores_it():
    import wmplanlab.cli  # noqa: F401  (imports every module that binds a layer)
    from wmplanlab import evalreport, finetune, planners, worldmodel

    before = _bindings()
    tr = tracing.Tracer()
    with tr:
        for module in (planners, evalreport, worldmodel):
            assert module.rollout_model is not before[("wmplanlab.worldmodel",
                                                       "rollout_model")]
        assert finetune.gbp is not before[("wmplanlab.planners", "gbp")]
        assert finetune.encode is not before[("wmplanlab.encoder", "encode")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_without_a_checkout_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mpc-gbp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

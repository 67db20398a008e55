"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mpc-gbp --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, taken by wrapping the layer
functions from outside the package (see tracer.py). Lines before it carry
the machine block and, when traced, the layer mapping and the GBP-vs-CEM
block. The trace itself is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS = 1


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["pipeline-train", "mpc-gbp", "plan-sampling"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="input sizes; tiny is for the benchmark's own tests")
    return p.parse_args(argv)


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workers": WORKERS,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result, units: dict[str, str]) -> dict:
    return {name: _metric(result.metrics[name], unit) for name, unit in units.items()}


def per_layer(tracer, untraced_s: float, units: dict[str, str]) -> dict:
    values = tracer.metric_values(untraced_s)
    return {name: _metric(values[name], unit) for name, unit in units.items()}


def plan_block(tracer) -> dict:
    """Median seconds and model forwards per plan for each planner."""
    out = {}
    for layer, plans in tracer.plans.items():
        if plans:
            out[layer.split(".")[-1]] = {
                "plans": len(plans),
                "seconds_p50": statistics.median(s for s, _ in plans),
                "forwards_p50": statistics.median(f for _, f in plans),
            }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wmplanlab", "__init__.py")):
        print("error: src/wmplanlab not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("WMPLANLAB_SEED", None)  # the seed comes only from --seed
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import tracer as tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    machine = machine_block()
    print(json.dumps({"machine": machine}))
    tmp_parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               workloads.SCALES[args.scale], tmp_root,
                               tracing.Tracer if args.trace else None)
    except Exception:  # a failed check or a crash outside the units
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print(json.dumps({"info": result.info, "problems": result.problems}))
    if args.trace:
        tr = result.trace
        metrics = per_layer(tr, result.info["raw_s"], layer_units)
        block = plan_block(tr)
        print(json.dumps({"layer_groups": tracing.GROUPS}))
        print(json.dumps({"plans": block}))
        print(json.dumps({"group_shares": tr.group_shares()}))
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "machine": machine, "plans": block,
                       "untraced_s": result.info["raw_s"],
                       "trace": tr.to_json()}, fh)
    else:
        metrics = end_to_end(result, e2e_units)
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

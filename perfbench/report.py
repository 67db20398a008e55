"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/report.py --seed 1 --seconds 10

For each workload it runs perfbench/run.py twice, one process at a time:
with --trace 0 for the end-to-end metrics and with --trace 1 for the
per-layer metrics. It then prints the end-to-end metrics with their units,
directions and bounds, the per-layer metrics, the layer-to-metric mapping,
and the GBP-vs-CEM block, which puts the seconds and the model forwards
per plan of gbp (from mpc-gbp) next to those of cem and mppi (from
plan-sampling). The block is informational, not a gated metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 scale: str) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--scale", scale],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def _block_lines(plans: dict) -> list[str]:
    lines = [f"  {'planner':8s} {'plans':>6s} {'s/plan p50':>11s} {'forwards/plan p50':>18s}"]
    for name, p in plans.items():
        lines.append(f"  {name:8s} {p['plans']:6d} {p['seconds_p50']:11.4f} "
                     f"{p['forwards_p50']:18.0f}")
    gbp = plans.get("gbp")
    for base in ("cem", "mppi"):
        if gbp and base in plans:
            b = plans[base]
            lines.append(
                f"  gbp/{base}: seconds {gbp['seconds_p50'] / b['seconds_p50']:.3f} "
                f"(base {base} {b['seconds_p50']:.4f} s/plan), forwards "
                f"{gbp['forwards_p50'] / b['forwards_p50']:.4f} "
                f"(base {base} {b['forwards_p50']:.0f} forwards/plan)")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    plans, groups, machine = {}, {}, None
    for w in (x["name"] for x in bench["workloads"]):
        untraced = run_workload(w, args.seed, args.seconds, 0, args.scale)
        traced = run_workload(w, args.seed, args.seconds, 1, args.scale)
        machine = machine or untraced[0]["machine"]
        print(f"== {w}  correct={untraced[-1]['correct'] and traced[-1]['correct']} "
              f"attempted={untraced[-1]['attempted']} failed={untraced[-1]['failed']}")
        print("  end-to-end")
        for m in bench["end_to_end"]:
            value = untraced[-1]["metrics"][m["name"]]["value"]
            print(f"    {m['name']:26s} {value:14.6g} {m['unit']:6s} "
                  f"{m['better']:6s} bound {m['bound']}")
        print("  per-layer (traced run)")
        for name, v in traced[-1]["metrics"].items():
            if v["value"]:
                print(f"    {name:44s} {v['value']:14.6g} {v['unit']}")
        for line in traced[:-1]:
            if "plans" in line:
                if "gbp" in line["plans"] and w == "mpc-gbp":
                    plans["gbp"] = line["plans"]["gbp"]
                for name in ("cem", "mppi"):
                    if name in line["plans"]:
                        plans[name] = line["plans"][name]
            groups = line.get("layer_groups", groups)
    print("== layer groups and the end-to-end metrics they should move")
    for name, g in groups.items():
        print(f"  {name}: {g['moves']}")
        print(f"    {', '.join(g['layers'])}")
    print("== GBP vs CEM (traced runs; seconds include tracing)")
    print("\n".join(_block_lines(plans)))
    print("== machine")
    print(f"  {json.dumps(machine)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

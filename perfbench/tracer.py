"""Layer tracer that wraps wmplanlab functions from outside the package.

`Tracer.install()` replaces each listed layer function with a timing
wrapper in every wmplanlab module that binds it (a name brought in with
`from .x import y` is a separate binding and is patched separately), and
`Tracer.uninstall()` puts every original object back.

Self time of a call is its duration minus the time spent in traced calls
it made, so the self times of all layers partition the traced wall time
that the layers cover. Coarse layers keep one span per call, up to
MAX_SPANS; the hot leaves (one model forward, one env step, one encode)
only keep a count and a time per parent layer, because a single CEM plan
makes about 225k forwards.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced layer, grouped by the code path it
# belongs to. Each group names the end-to-end metrics it should move.
GROUPS = {
    "per-sequence tape": {
        "layers": ["worldmodel.rollout_nodes", "worldmodel.WorldModel.forward_nodes",
                   "diffcore.grad", "diffcore.adam_step", "diffcore.sgd_step",
                   "planners.gbp"],
        "moves": "units_per_s and unit_p50_s on mpc-gbp; online_iters_per_s on "
                 "every workload; no change in plan-sampling's loop",
    },
    "batched tape": {
        "layers": ["worldmodel.supervised_step", "finetune._attack_deltas",
                   "finetune.adversarial_wm", "finetune.online_wm"],
        "moves": "train_transitions_per_s and adv_transitions_per_s on every "
                 "workload; setup_s",
    },
    "numpy forward and sampling": {
        "layers": ["worldmodel.predict", "worldmodel.rollout_model", "planners.cem",
                   "planners.mppi", "planners._safe_cholesky", "planners.mpc"],
        "moves": "units_per_s and unit_p50_s on plan-sampling; no change in "
                 "mpc-gbp's loop",
    },
    "env and encoder": {
        "layers": ["envs.step", "envs.generate_dataset", "encoder.encode"],
        "moves": "gen_transitions_per_s on every workload; a small share of "
                 "units_per_s on plan-sampling through MPPI's MPC episodes",
    },
    "io": {
        "layers": ["tensorio.save_tensors", "tensorio.load_tensors",
                   "data.save_dataset", "data.load_dataset"],
        "moves": "setup_s and gen_transitions_per_s",
    },
}

LAYERS = [name for group in GROUPS.values() for name in group["layers"]]
HOME = {layer: group for group, g in GROUPS.items() for layer in g["layers"]}
# Tape layers that both paths use. Their time is counted in the group of
# the nearest traced caller that is not one of them: under supervised_step
# or _attack_deltas it is batched tape time, under gbp per-sequence time.
SHARED = frozenset({"worldmodel.WorldModel.forward_nodes", "diffcore.grad",
                    "diffcore.adam_step", "diffcore.sgd_step"})
LEAVES = frozenset({"worldmodel.predict", "worldmodel.WorldModel.forward_nodes",
                    "envs.step", "encoder.encode"})
FORWARDS = frozenset({"worldmodel.predict", "worldmodel.WorldModel.forward_nodes"})
PLANNERS = ("planners.gbp", "planners.cem", "planners.mppi")
MAX_SPANS = 20000

# counters read from a layer's arguments and result:
# name -> (unit, layer, fn(args, result))
EXTRA_COUNTERS = {
    "planners.gbp.aborted": ("count", "planners.gbp",
                             lambda args, result: int(result.aborted)),
    "planners.gbp.iterations": ("count", "planners.gbp",
                                lambda args, result: result.iterations),
    "worldmodel.supervised_step.rows": ("count", "worldmodel.supervised_step",
                                        lambda args, result: len(args[2])),
    "planners._safe_cholesky.fallbacks": ("count", "planners._safe_cholesky",
                                          lambda args, result: int(result is None)),
    "planners.mpc.successes": ("count", "planners.mpc",
                               lambda args, result: int(result.success)),
    "tensorio.save_tensors.bytes": ("B", "tensorio.save_tensors",
                                    lambda args, result: os.path.getsize(args[0])),
    "tensorio.load_tensors.bytes": ("B", "tensorio.load_tensors",
                                    lambda args, result: os.path.getsize(args[0])),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a stable order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name, (unit, _, _) in EXTRA_COUNTERS.items():
        units[name] = unit
    units["trace.overhead"] = "ratio"
    units["trace.uncovered_share"] = "ratio"
    return units


def _resolve(layer: str):
    """Owner object, attribute name and original function of a layer."""
    module_name, _, qual = layer.partition(".")
    owner = importlib.import_module(f"wmplanlab.{module_name}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Times the listed layers while installed; see the module docstring."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)
        self.leaf_by_parent = defaultdict(lambda: [0, 0.0])  # (parent, leaf)
        self.plans = defaultdict(list)  # planner -> [(seconds, forwards)]
        self.group_s = defaultdict(float)  # group -> self seconds, see SHARED
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._patched: list[tuple] = []
        # frame: [name, start, child seconds, forwards, span id, group]
        self._stack = [["<root>", 0.0, 0.0, 0, -1, None]]
        self._next_id = 0
        self._t_start = self._t_stop = 0.0

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "wmplanlab" or name.startswith("wmplanlab."))
                   and m is not None]
        for layer in LAYERS:
            owner, attr, original = _resolve(layer)
            wrapper = self._wrap(layer, original)
            targets = [(owner, attr)]
            for module in modules:
                targets += [(module, key) for key, value in vars(module).items()
                            if value is original and (module, key) != (owner, attr)]
            for obj, key in targets:
                self._patched.append((obj, key, original))
                setattr(obj, key, wrapper)
        self._t_start = time.perf_counter()

    def uninstall(self) -> None:
        self._t_stop = time.perf_counter()
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ------------------------------------------------------------

    def _record_span(self, frame, end: float) -> None:
        if len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][4]
            self.spans.append((frame[4], parent, frame[0], frame[1] - self._t_start,
                               end - self._t_start))
        else:
            self.spans_dropped += 1

    def _group(self, layer: str | None):
        if layer in SHARED:
            return self._stack[-1][5] or HOME[layer]
        return HOME.get(layer, self._stack[-1][5])

    def _push(self, name: str):
        frame = [name, time.perf_counter(), 0.0, 0, self._next_id, self._group(name)]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame, end: float) -> float:
        self._stack.pop()
        duration = end - frame[1]
        parent = self._stack[-1]
        parent[2] += duration
        parent[3] += frame[3]
        self._record_span(frame, end)
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span around traced calls; not a layer."""
        frame = self._push(name)
        try:
            yield
        finally:
            self._pop(frame, time.perf_counter())

    def _wrap(self, layer: str, fn):
        perf = time.perf_counter
        stack = self._stack
        group_s = self.group_s
        if layer in LEAVES:
            cells = self.leaf_by_parent
            is_forward = layer in FORWARDS
            shared = layer in SHARED
            home = HOME[layer]

            def leaf_wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    parent = stack[-1]
                    parent[2] += dt
                    if is_forward:
                        parent[3] += 1
                    cell = cells[(parent[0], layer)]
                    cell[0] += 1
                    cell[1] += dt
                    group_s[(parent[5] or home) if shared else home] += dt

            return leaf_wrapper

        counters = [(name, get) for name, (_, owner, get) in EXTRA_COUNTERS.items()
                    if owner == layer]
        plans = self.plans[layer] if layer in PLANNERS else None

        def wrapper(*args, **kwargs):
            frame = self._push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                duration = self._pop(frame, end)
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[2]
                group_s[frame[5]] += duration - frame[2]
            for name, get in counters:
                self.extra[name] += get(args, result)
            if plans is not None:
                plans.append((duration, frame[3]))
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def wall_s(self) -> float:
        return self._t_stop - self._t_start

    def leaf_totals(self) -> tuple[dict, dict]:
        calls, seconds = defaultdict(int), defaultdict(float)
        for (_, leaf), (n, t) in self.leaf_by_parent.items():
            calls[leaf] += n
            seconds[leaf] += t
        return calls, seconds

    def layer_metrics(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds) for every listed layer."""
        leaf_calls, leaf_s = self.leaf_totals()
        out = {}
        for layer in LAYERS:
            if layer in LEAVES:
                out[layer] = (leaf_calls[layer], leaf_s[layer])
            else:
                out[layer] = (self.calls[layer], self.self_s[layer])
        return out

    def covered_s(self) -> float:
        return sum(s for _, s in self.layer_metrics().values())

    def metric_values(self, untraced_s: float) -> dict[str, float]:
        """Every per-layer metric of metric_units(); `untraced_s` is the wall
        time of the same units run without the tracer."""
        values = {}
        for layer, (calls, self_s) in self.layer_metrics().items():
            values[f"{layer}.calls"] = calls
            values[f"{layer}.self_s"] = self_s
        for name in EXTRA_COUNTERS:
            values[name] = self.extra.get(name, 0)
        values["trace.overhead"] = self.wall_s() / untraced_s
        values["trace.uncovered_share"] = 1.0 - self.covered_s() / self.wall_s()
        return values

    def group_shares(self) -> dict[str, float]:
        """Share of the traced wall time in each group's self time, with the
        shared tape layers counted on the path that called them, and the
        share no listed layer covers."""
        wall = self.wall_s()
        shares = {g: self.group_s.get(g, 0.0) / wall for g in GROUPS}
        shares["uncovered"] = 1.0 - sum(shares.values())
        return shares

    def to_json(self) -> dict:
        return {
            "wall_s": self.wall_s(),
            "group_shares": self.group_shares(),
            "layers": {k: {"calls": c, "self_s": s}
                       for k, (c, s) in self.layer_metrics().items()},
            "extra": dict(self.extra),
            "leaf_by_parent": [{"parent": p, "leaf": leaf, "calls": n, "seconds": t}
                               for (p, leaf), (n, t) in sorted(self.leaf_by_parent.items())],
            "plans": {k: [{"seconds": s, "forwards": f} for s, f in v]
                      for k, v in self.plans.items() if v},
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }

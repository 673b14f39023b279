"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's side: ``install`` rebinds the
module attributes through which callers reach each public function to a
wrapper that records a span around the original.  Nothing inside the
package changes.  Each span holds its name, start, end and parent; a
layer's self time is its duration minus the time of its child spans.
Counts are read from the objects the wrapped functions return.  Spans stay
in memory until ``dump`` writes them out once at the end of the run.
"""

from __future__ import annotations

import time
from array import array
from importlib import import_module

import numpy as np

# (span name, defining module, function, bindings rebound to the wrapper).
# A binding is (module, attribute); every binding through which package
# code or the benchmark reaches the function is listed.
SPANS = (
    ("cli.main", "cli", "main", (("cli", "main"),)),
    ("experiments.load_config", "experiments", "load_config", (("cli", "load_config"),)),
    ("experiments.run_experiment", "experiments", "run_experiment", (("cli", "run_experiment"),)),
    ("scheduling.remainder_of_service", "scheduling", "remainder_of_service",
     (("experiments", "remainder_of_service"),)),
    ("curves.leftover_delay_bound_details", "curves", "leftover_delay_bound_details",
     (("curves", "leftover_delay_bound_details"), ("experiments", "leftover_delay_bound_details"))),
    ("curves.max_stable_theta", "curves", "max_stable_theta", (("curves", "max_stable_theta"),)),
    ("curves.crossing_time", "curves", "crossing_time", (("curves", "crossing_time"),)),
    ("curves.horizontal_distance", "curves", "horizontal_distance", (("curves", "horizontal_distance"),)),
    ("simulate.run", "simulate", "run", (("simulate", "run"), ("experiments", "run_simulation"))),
    ("traffic.leftover_arrivals", "traffic", "leftover_arrivals",
     (("traffic", "leftover_arrivals"), ("simulate", "leftover_arrivals"))),
    ("simulate.empirical_quantile", "simulate", "empirical_quantile",
     (("simulate", "empirical_quantile"), ("experiments", "empirical_quantile"))),
)
# drop_walk gets two span names, split on its ``slotted`` argument.
DROP_WALK_BINDINGS = (("scheduling", "drop_walk"), ("experiments", "drop_walk"), ("simulate", "drop_walk"))

COUNTERS = ("simulate.slots", "simulate.haptic_sent", "simulate.haptic_dropped",
            "traffic.leftover_arrivals.packets", "bg_finished", "bg_arrived")

# per-layer metric name -> unit; filled in by ``metrics``
PER_LAYER = {
    "cli.main.self_s": "s",
    "experiments.load_config.self_s": "s",
    "experiments.run_experiment.self_s": "s",
    "experiments.run_experiment.rows": "count",
    "experiments.run_experiment.fail_rows": "count",
    "scheduling.drop_walk.calls": "count",
    "scheduling.drop_walk.self_s": "s",
    "scheduling.drop_walk_slotted.calls": "count",
    "scheduling.drop_walk_slotted.self_s": "s",
    "scheduling.remainder_of_service.self_s": "s",
    "curves.leftover_delay_bound_details.calls": "count",
    "curves.leftover_delay_bound_details.self_s": "s",
    "curves.max_stable_theta.calls": "count",
    "curves.max_stable_theta.self_s": "s",
    "curves.crossing_time.calls": "count",
    "curves.crossing_time.self_s": "s",
    "curves.horizontal_distance.self_s": "s",
    "simulate.run.calls": "count",
    "simulate.run.self_s": "s",
    "simulate.slots": "count",
    "simulate.haptic_sent": "count",
    "simulate.haptic_dropped": "count",
    "traffic.leftover_arrivals.self_s": "s",
    "traffic.leftover_arrivals.packets": "count",
    "simulate.empirical_quantile.calls": "count",
    "simulate.empirical_quantile.self_s": "s",
    "simulate.bg_finished_frac": "ratio",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self._modules = {name: import_module(f"hapticsched.{name}")
                         for name in ("cli", "curves", "experiments", "scheduling", "simulate", "traffic")}
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._last_arrivals = None
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        after = {"simulate.run": self._count_run, "traffic.leftover_arrivals": self._count_arrivals}
        for span, module, func, bindings in SPANS:
            wrapper = self._wrap(span, getattr(self._modules[module], func), after.get(span))
            self._wrappers += [(self._modules[m], attr, wrapper) for m, attr in bindings]
        walk = self._modules["scheduling"].drop_walk
        walk_plain = self._wrap("scheduling.drop_walk", walk)
        walk_slotted = self._wrap("scheduling.drop_walk_slotted", walk)

        def drop_walk(scheme, radio, haptic, slotted=False):
            return (walk_slotted if slotted else walk_plain)(scheme, radio, haptic, slotted)

        self._wrappers += [(self._modules[m], attr, drop_walk) for m, attr in DROP_WALK_BINDINGS]

    def _wrap(self, span: str, fn, after=None):
        self.names.append(span)
        nid = len(self.names) - 1
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        return traced

    def _count_arrivals(self, timeline, *args) -> None:
        self.counters["traffic.leftover_arrivals.packets"] += len(timeline)
        self._last_arrivals = timeline.times_s

    def _count_run(self, report, config) -> None:
        counts = report.haptic_period_counts
        self.counters["simulate.slots"] += int(report.slots_simulated)
        self.counters["simulate.haptic_sent"] += int(counts[:, 0].sum())
        self.counters["simulate.haptic_dropped"] += int(counts[:, 1].sum())
        # the simulator keeps finished packets that arrived after the
        # one-period warm-up; the base is every packet that arrived then
        warmup_s = config.haptic.t_p_ns / 1e9
        arrivals = self._last_arrivals
        self.counters["bg_finished"] += len(report.leftover_delays)
        self.counters["bg_arrived"] += int(len(arrivals) - np.searchsorted(arrivals, warmup_s, side="left"))

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self._originals = [(module, attr, getattr(module, attr)) for module, attr, _ in self._wrappers]
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)
        self._originals = []

    def metrics(self, overhead_frac: float, rows: int, fail_rows: int) -> dict[str, float]:
        """Per-layer totals over every span recorded."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        calls = np.bincount(name_id, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=duration - child, minlength=len(self.names))
        out = {}
        for name, unit in PER_LAYER.items():
            layer, _, counter = name.rpartition(".")
            if layer in self.names and counter in ("calls", "self_s"):
                i = self.names.index(layer)
                out[name] = int(calls[i]) if counter == "calls" else float(self_s[i])
        out.update({k: self.counters[k] for k in COUNTERS if k in PER_LAYER})
        arrived = self.counters["bg_arrived"]
        out["simulate.bg_finished_frac"] = self.counters["bg_finished"] / arrived if arrived else 0.0
        out["experiments.run_experiment.rows"] = rows
        out["experiments.run_experiment.fail_rows"] = fail_rows
        out["trace.spans"] = len(duration)
        out["trace.overhead_frac"] = overhead_frac
        missing = set(PER_LAYER) - set(out)
        if missing:
            raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
        return out

    def dump(self, path) -> None:
        """Write every span once: names, name ids, parents, starts, ends."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_s=np.frombuffer(self.start),
            end_s=np.frombuffer(self.end),
        )

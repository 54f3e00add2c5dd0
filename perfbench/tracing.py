"""Spans around the public functions of every ftagree module.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each public
function of the traced modules, in every ``ftagree`` namespace that binds
it (``cli``, ``repro`` and ``reconstruct`` import functions by name), with
a wrapper that records a span.  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, op]``; spans stay in memory and
are written out once, at the end of the run.  Self time is a span's
duration minus the durations of its direct children, so the self times
of all spans under an operation's root span add up to its wall time.
Bookkeeping done after a call returns (reading counters off results)
runs in its own ``trace.observe`` span so it is not charged to any layer.
"""

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "scenario", "graph", "spectral", "protocols", "bounds",
    "engine", "output", "reconstruct", "repro", "cli",
)
OP_SPAN = "bench.op"
OBSERVE_SPAN = "trace.observe"

# Per-layer metrics and their units.  README.md gives, for each, the
# end-to-end metric it should move and the workload it mainly shows on.
LAYER_METRICS = {
    "protocols.p1_field_us": "us",
    "protocols.p2_field_us": "us",
    "engine.integrate_s": "s",
    "engine.self_s": "s",
    "engine.runs": "count",
    "engine.steps": "count",
    "engine.field_evals": "count",
    "engine.samples": "count",
    "engine.step_us": "us",
    "engine.agent_steps_per_s": "1/s",
    "engine.converged_frac": "frac",
    "engine.envelope_s": "s",
    "engine.drift_s": "s",
    "engine.max_drift": "state",
    "bounds.v1_s": "s",
    "bounds.v1_calls": "count",
    "bounds.tightness_max": "ratio",
    "spectral.eig_s": "s",
    "spectral.eig_calls": "count",
    "spectral.max_residual": "abs",
    "spectral.max_eig_err": "abs",
    "reconstruct.search_s": "s",
    "reconstruct.subsets": "count",
    "reconstruct.candidates": "count",
    "scenario.parse_s": "s",
    "scenario.parse_calls": "count",
    "graph.build_s": "s",
    "graph.build_calls": "count",
    "graph.connected_s": "s",
    "graph.transform_s": "s",
    "output.csv_s": "s",
    "output.csv_bytes": "bytes",
    "cli.run_s": "s",
    "cli.self_s": "s",
    "repro.run_s": "s",
    "repro.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = defaultdict(float)
        self.pending_eigs = []  # (matrix, eigenvalues) checked after each op
        self.max_eig_err = 0.0
        self._patched = []  # (namespace dict, attribute, original)
        self._observers = {
            "engine.integrate": self._observe_integrate,
            "engine.conservation_drift": self._observe_drift,
            "spectral.eigenvalues_symmetric": self._observe_eig,
            "output.write_trajectory_csv": self._observe_csv,
            "reconstruct.reconstruct_paper_graph": self._observe_reconstruct,
        }

    # --- installation ---

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"ftagree.{short}"]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name != "ftagree" and not name.startswith("ftagree."):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((namespace, attr, value))
                    namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the block; yields the span's index."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        observer = self._observers.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observer is not None:
                with self.span(OBSERVE_SPAN):
                    observer(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def run_op(self, op_id, fn, *args):
        """Run one operation under a root span; returns (result, wall seconds)."""
        self.op = op_id
        try:
            with self.span(OP_SPAN) as idx:
                result = fn(*args)
        finally:
            self.op = None
        _name, start, end, _parent, _op = self.spans[idx]
        self._flush_eig_checks()
        return result, end - start

    # --- observers: counters read off arguments (by name) and results ---

    def _observe_integrate(self, args, traj):
        sc = args["sc"]
        steps = int(round(traj.samples[-1].t / sc.dt))
        c = self.counters
        c["engine.steps"] += steps
        c["engine.agent_steps"] += steps * sc.x0.size
        c["engine.samples"] += len(traj.samples)
        c["engine.converged"] += traj.status == "Converged"

    def _observe_drift(self, args, drift):
        self.counters["engine.max_drift"] = max(self.counters["engine.max_drift"], drift)

    def _observe_eig(self, args, spectrum):
        self.pending_eigs.append((np.array(args["m"], dtype=float), spectrum.eigenvalues.copy()))
        c = self.counters
        c["spectral.max_residual"] = max(c["spectral.max_residual"], spectrum.residual)

    def _observe_csv(self, args, nbytes):
        self.counters["output.csv_bytes"] += nbytes

    def _observe_reconstruct(self, args, candidates):
        n = np.asarray(args["x0"]).size
        self.counters["reconstruct.subsets"] += 2 ** (n * (n - 1) // 2)
        self.counters["reconstruct.candidates"] += len(candidates)

    def _flush_eig_checks(self):
        for m, got in self.pending_eigs:
            ref = np.linalg.eigvalsh((m + m.T) / 2.0)
            self.max_eig_err = max(self.max_eig_err, float(np.abs(got - ref).max()))
        self.pending_eigs.clear()

    # --- aggregation ---

    def _child_durations(self):
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child

    def aggregate(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = self._child_durations()
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, total, self_s

    def self_time_gap(self) -> float:
        """Largest gap, over operations, between an op's wall time and the
        sum of the self times of the spans under it (0 up to rounding)."""
        child = self._child_durations()
        per_op_self = defaultdict(float)
        per_op_wall = {}
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            per_op_self[op] += end - start - child[i]
            if name == OP_SPAN:
                per_op_wall[op] = end - start
        return max(
            (abs(per_op_self[op] - wall) for op, wall in per_op_wall.items()), default=0.0
        )

    def layer_metrics(self, overhead_frac, probe_us, tightness_max):
        calls, total, self_s = self.aggregate()
        c = self.counters
        steps = c["engine.steps"]
        integrate_s = total["engine.integrate"]
        runs = calls["engine.integrate"]
        op_wall = total[OP_SPAN]

        def layer_self(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

        values = {
            "protocols.p1_field_us": probe_us["p1"],
            "protocols.p2_field_us": probe_us["p2"],
            "engine.integrate_s": integrate_s,
            "engine.self_s": self_s["engine.integrate"],
            "engine.runs": runs,
            "engine.steps": steps,
            "engine.field_evals": 4 * steps,
            "engine.samples": c["engine.samples"],
            "engine.step_us": 1e6 * integrate_s / steps if steps else 0.0,
            "engine.agent_steps_per_s": c["engine.agent_steps"] / integrate_s if integrate_s else 0.0,
            "engine.converged_frac": c["engine.converged"] / runs if runs else 0.0,
            "engine.envelope_s": total["engine.verify_envelope"],
            "engine.drift_s": total["engine.conservation_drift"],
            "engine.max_drift": c["engine.max_drift"],
            "bounds.v1_s": total["bounds.v1"],
            "bounds.v1_calls": calls["bounds.v1"],
            "bounds.tightness_max": tightness_max,
            "spectral.eig_s": total["spectral.eigenvalues_symmetric"],
            "spectral.eig_calls": calls["spectral.eigenvalues_symmetric"],
            "spectral.max_residual": c["spectral.max_residual"],
            "spectral.max_eig_err": self.max_eig_err,
            "reconstruct.search_s": total["reconstruct.reconstruct_paper_graph"],
            "reconstruct.subsets": c["reconstruct.subsets"],
            "reconstruct.candidates": c["reconstruct.candidates"],
            "scenario.parse_s": total["scenario.parse_scenario"],
            "scenario.parse_calls": calls["scenario.parse_scenario"],
            "graph.build_s": total["graph.topology_new"],
            "graph.build_calls": calls["graph.topology_new"],
            "graph.connected_s": total["graph.is_connected"],
            "graph.transform_s": total["graph.exponent_transform"],
            "output.csv_s": total["output.write_trajectory_csv"],
            "output.csv_bytes": c["output.csv_bytes"],
            "cli.run_s": total["cli.run_cli"],
            "cli.self_s": layer_self("cli"),
            "repro.run_s": total["repro.run_repro"],
            "repro.self_s": layer_self("repro"),
            "trace.spans": sum(n for k, n in calls.items() if k not in (OP_SPAN, OBSERVE_SPAN)),
            "trace.overhead_frac": overhead_frac,
            "trace.unattributed_frac": self_s[OP_SPAN] / op_wall if op_wall else 0.0,
        }
        return {k: (float(values[k]), unit) for k, unit in LAYER_METRICS.items()}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )

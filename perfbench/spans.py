"""Spans around calls into the package's public functions, recorded from outside.

The package is not changed: `install` replaces each traced function, in every
`ncusp` module namespace that holds it, with a wrapper that records a span
(id, parent id, op id, name, start, end) while an op is being traced. Spans
stay in memory; `layer_totals` turns them into calls and self time per name,
self time being a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

# span name -> the functions it wraps, as "module:qualname"
LAYERS = {
    "cli.command": ["ncusp.cli:main"],
    "mesh.generate": ["ncusp.steklov.mesh:generate_cusp_mesh"],
    "fem.workspace": ["ncusp.steklov.fem:FemWorkspace.__init__"],
    "fem.energy": ["ncusp.steklov.fem:FemWorkspace.energy"],
    "fem.boundary": ["ncusp.steklov.fem:FemWorkspace.boundary"],
    "fem.metric": ["ncusp.steklov.fem:FemWorkspace.metric_matrix"],
    "fem.residual": ["ncusp.steklov.fem:FemWorkspace.residual"],
    "solve.minimize": ["ncusp.steklov.solve:minimize_rayleigh"],
    "solve.oracle": ["ncusp.steklov.solve:linear_oracle"],
    "geometry.halton": ["ncusp.geometry:quasi_random_interior",
                        "ncusp.geometry:quasi_random_model_interior"],
    "geometry.map": ["ncusp.geometry:forward_map", "ncusp.geometry:inverse_map",
                     "ncusp.geometry:jacobian_forward",
                     "ncusp.geometry:jacobian_inverse",
                     "ncusp.geometry:jacobi_matrix",
                     "ncusp.geometry:tangential_jacobian",
                     "ncusp.geometry:tangential_jacobian_bounds"],
    "quadrature.rule": ["ncusp.quadrature:gauss_nodes_01",
                        "ncusp.quadrature:graded_interval_rule",
                        "ncusp.quadrature:triangle_rule"],
    "quadrature.integral": ["ncusp.quadrature:boundary_integral",
                            "ncusp.quadrature:volume_integral",
                            "ncusp.quadrature:GradedRule.integrate",
                            "ncusp.quadrature:TriangleRule.integrate"],
    "operators.checks": ["ncusp.operators:dphi_spectral_norm",
                         "ncusp.operators:K_pp_estimate",
                         "ncusp.operators:K_ps_estimate",
                         "ncusp.operators:change_of_variables_check",
                         "ncusp.operators:area_formula_check",
                         "ncusp.operators:embedding_ranges",
                         "ncusp.operators:weighted_boundary_norm",
                         "ncusp.operators:sobolev_norm"],
    "embedding.norms": ["ncusp.embedding:test_function_norms"],
    "verify.jacobian": ["ncusp.verify:jacobian_suite"],
    "verify.measure": ["ncusp.verify:measure_suite"],
}


class Tracer:
    """In-memory span and counter recorder; records only while `op` is set."""

    def __init__(self):
        self.spans: list = []       # (id, parent, op, name, start, end)
        self.counters: list = []    # (op, name, value)
        self.op: str | None = None
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (no parent)."""
        self.spans.append((len(self.spans), None, self.op, name, start, end))

    def count(self, name: str, value: float) -> None:
        self.counters.append((self.op, name, value))

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[span_id] = (span_id, parent, self.op, name, start, end)
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    def extend(self, spans) -> None:
        """Append spans recorded by another process, renumbering their ids."""
        base = len(self.spans)
        for sid, parent, op, name, start, end in spans:
            self.spans.append((sid + base, None if parent is None else parent + base,
                               op, name, start, end))


def _count_solution(tracer: Tracer, sol) -> None:
    tracer.count("solve.iterations", sol.iterations)
    tracer.count("solve.restarts", sol.restarts)


def _resolve(target: str):
    mod_name, qualname = target.split(":")
    owner = importlib.import_module(mod_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS, and `splu` as the solver module calls it."""
    for name, targets in LAYERS.items():
        for target in targets:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            hook = _count_solution if name == "solve.minimize" else None
            traced = tracer.wrap(name, original, hook)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                continue
            # rebind every `from ... import` copy so internal callers see it too
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "ncusp" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
    solve = importlib.import_module("ncusp.steklov.solve")
    spla = types.SimpleNamespace(**vars(solve.spla))
    spla.splu = tracer.wrap("solve.lu", solve.spla.splu)
    solve.spla = spla


def _phase(op) -> str:
    return "setup" if op == "setup" else "loop"


def layer_totals(spans, counters) -> dict:
    """{(phase, name, field): sum} with phase 'setup' or 'loop'; the fields of a
    span name are calls, total_s and self_s, of a counter name `counter`."""
    child_time = defaultdict(float)
    for sid, parent, op, name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for sid, parent, op, name, start, end in spans:
        totals[(_phase(op), name, "calls")] += 1
        totals[(_phase(op), name, "total_s")] += end - start
        totals[(_phase(op), name, "self_s")] += end - start - child_time[sid]
    for op, name, value in counters:
        totals[(_phase(op), name, "counter")] += value
    return totals


# per-layer metric -> (span or counter name, field)
PER_LAYER = {
    "cli.import_s": ("cli.import", "total_s"),
    "cli.command_s": ("cli.command", "total_s"),
    "mesh.generate.calls": ("mesh.generate", "calls"),
    "mesh.generate.self_s": ("mesh.generate", "self_s"),
    "fem.workspace.builds": ("fem.workspace", "calls"),
    "fem.workspace.self_s": ("fem.workspace", "self_s"),
    "fem.energy.calls": ("fem.energy", "calls"),
    "fem.energy.self_s": ("fem.energy", "self_s"),
    "fem.boundary.calls": ("fem.boundary", "calls"),
    "fem.boundary.self_s": ("fem.boundary", "self_s"),
    "fem.metric.calls": ("fem.metric", "calls"),
    "fem.metric.self_s": ("fem.metric", "self_s"),
    "fem.residual.calls": ("fem.residual", "calls"),
    "fem.residual.self_s": ("fem.residual", "self_s"),
    "solve.minimize.calls": ("solve.minimize", "calls"),
    "solve.minimize.self_s": ("solve.minimize", "self_s"),
    "solve.iterations": ("solve.iterations", "counter"),
    "solve.restarts": ("solve.restarts", "counter"),
    "solve.lu.calls": ("solve.lu", "calls"),
    "solve.lu.self_s": ("solve.lu", "self_s"),
    "solve.oracle.self_s": ("solve.oracle", "self_s"),
    "geometry.halton.calls": ("geometry.halton", "calls"),
    "geometry.halton.self_s": ("geometry.halton", "self_s"),
    "geometry.map.calls": ("geometry.map", "calls"),
    "geometry.map.self_s": ("geometry.map", "self_s"),
    "quadrature.rule.calls": ("quadrature.rule", "calls"),
    "quadrature.integral.self_s": ("quadrature.integral", "self_s"),
    "operators.checks.self_s": ("operators.checks", "self_s"),
    "embedding.norms.calls": ("embedding.norms", "calls"),
    "embedding.norms.self_s": ("embedding.norms", "self_s"),
    "verify.jacobian.self_s": ("verify.jacobian", "self_s"),
    "verify.measure.self_s": ("verify.measure", "self_s"),
}


def per_layer_metrics(tracer: Tracer, passes: int) -> dict:
    """One set-up's figures plus the mean of one measured pass, per metric."""
    totals = layer_totals(tracer.spans, tracer.counters)

    def value(source, field):
        return totals[("setup", source, field)] + totals[("loop", source, field)] / passes

    out = {}
    for metric, (source, field) in PER_LAYER.items():
        unit = "s" if field.endswith("_s") else "count"
        out[metric] = {"value": value(source, field), "unit": unit}
    iters = value("solve.iterations", "counter")
    energy = value("fem.energy", "calls")
    out["solve.evals_per_iter"] = {"value": energy / iters if iters else 0.0,
                                   "unit": "evals/iter"}
    return out

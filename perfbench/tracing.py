"""Spans and counts around mopoisson's public functions, recorded from outside.

The modules import names directly (``from .fem import solve_spd``), so a
function is wrapped at every module attribute that refers to it, i.e.
where its caller looks it up.  Nothing under ``src/`` is edited; the
originals are restored by :meth:`Tracer.uninstall`.

A timed tracer records, per span name, the call count, the inclusive time
and the self time (inclusive minus the child spans of the same thread).
An untimed tracer only counts the few calls the deterministic counts
need, reads no clock, and so leaves end-to-end timings as they are.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import defaultdict
from time import perf_counter

import mopoisson
from mopoisson import cli, control, experiments, fem, mesh, objective, scalarize

MODULES = [mopoisson, mesh, fem, control, objective, scalarize, experiments, cli]

# Function -> span name; spans are named after the module that defines the function.
SPANS = {
    mesh.build_uniform_mesh: "mesh.build",
    mesh.locate_point: "mesh.locate",
    fem.assemble_stiffness: "fem.assemble",
    fem.solve_spd: "fem.solve",
    fem.assemble_point_load: "fem.point_load",
    fem.assemble_load_pwc: "fem.pwc_load",
    fem.evaluate: "fem.evaluate",
    control.pi0_project: "control.pi0",
    control.write_control: "control.write",
    control.read_control: "control.read",
    control.l2_error: "control.l2_error",
    objective.solve_state: "objective.state",
    objective.solve_adjoints: "objective.adjoints",
    objective.grad_wsm: "objective.grad",
    objective.grad_rpm: "objective.grad",
    scalarize.solve_wsm: "scalarize.subproblem",
    scalarize.solve_rpm: "scalarize.subproblem",
    scalarize.bb_projected_gradient: "scalarize.bb",
}
# Extra spans where experiments looks the function up: cache hits, system
# builds, and the error half of a table cell.
EXPERIMENTS_SPANS = {
    "control.read": "experiments.ref_hit",
    "fem.assemble": "experiments.system_build",
    "control.l2_error": "experiments.l2_error",
}
# Of the spans above, only these are wrapped when the tracer is untimed; the
# experiments spans below are always counted.
COUNTED = {"fem.solve", "scalarize.subproblem"}
# Spans whose individual durations are kept for percentiles.
SAMPLED = {"fem.solve", "scalarize.subproblem"}
# Spans that make up the busy time of the convergence-table cells.
CELL_SPANS = {"experiments.cell_solve", "experiments.l2_error"}


class Tracer:
    """Per-span totals for one unit of work; thread-safe."""

    def __init__(self, timed: bool, ref_level: int | None = None):
        self.timed = timed
        self.ref_level = ref_level
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = defaultdict(int)
            self.incl = defaultdict(float)
            self.self_s = defaultdict(float)
            self.samples = defaultdict(list)
            self.reports = defaultdict(int)
            self.write_bytes = 0
            self.cell_window = [float("inf"), float("-inf")]
            self.cell_wall = 0.0

    def end_phase(self) -> None:
        """Close a cell phase; concurrency is measured per phase, not across them."""
        with self._lock:
            start, end = self.cell_window
            if end > start:
                self.cell_wall += end - start
            self.cell_window = [float("inf"), float("-inf")]

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _account(self, name: str, result, args) -> None:
        """Counts taken from a call's result; the caller holds the lock."""
        self.calls[name] += 1
        if name == "scalarize.subproblem":
            self.reports["iterations"] += result.iterations
            self.reports["solve_count"] += result.solve_count
            self.reports["fallback_steps"] += result.fallback_steps
            self.reports["nonconverged"] += 0 if result.converged else 1
        elif name == "control.write":
            self.write_bytes += os.path.getsize(args[1])

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call is recorded under ``name``."""
        tracer = self

        if not self.timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                with tracer._lock:
                    tracer._account(name, result, args)
                return result

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
            with tracer._lock:
                tracer._account(name, result, args)
                tracer.incl[name] += duration
                tracer.self_s[name] += duration - children
                if name in SAMPLED:
                    tracer.samples[name].append(duration)
                if name in CELL_SPANS:
                    tracer.cell_window[0] = min(tracer.cell_window[0], start)
                    tracer.cell_window[1] = max(tracer.cell_window[1], end)
            return result

        return timed

    def _experiments_solve(self, fn):
        """Reference-level solves are cache misses; the others are table cells."""
        ref = self.span("experiments.ref_solve", fn)
        cell = self.span("experiments.cell_solve", fn)

        @functools.wraps(fn)
        def solve(problem, system, *args, **kwargs):
            chosen = ref if system.mesh.level == self.ref_level else cell
            return chosen(problem, system, *args, **kwargs)

        return solve

    # -- installation --------------------------------------------------

    def _wrapper_for(self, module, fn):
        name = SPANS.get(fn)
        if name is None or (not self.timed and name not in COUNTED):
            inner = fn
        else:
            inner = self.span(name, fn)
        if module is not experiments:
            return inner if inner is not fn else None
        if name == "scalarize.subproblem":
            return self._experiments_solve(inner)
        outer = EXPERIMENTS_SPANS.get(name)
        if outer is not None:
            return self.span(outer, inner)
        return inner if inner is not fn else None

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if not callable(value) or value not in SPANS:
                    continue
                wrapper = self._wrapper_for(module, value)
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        if self.timed:
            factorize = fem.StiffnessSystem.factorize
            self._saved.append((fem.StiffnessSystem, "factorize", factorize))
            fem.StiffnessSystem.factorize = self.span("fem.factorize", factorize)
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------

    def counts(self) -> dict:
        """The deterministic counts of the unit (see ``spec.COUNT_KEYS``)."""
        return {
            "scalarize.subproblems": self.calls["scalarize.subproblem"],
            "scalarize.bb_iterations": self.reports["iterations"],
            "scalarize.solve_count": self.reports["solve_count"],
            "scalarize.fallback_steps": self.reports["fallback_steps"],
            "scalarize.nonconverged": self.reports["nonconverged"],
            "fem.solve_calls": self.calls["fem.solve"],
            "experiments.ref_cache_misses": self.calls["experiments.ref_solve"],
            "experiments.ref_cache_hits": self.calls["experiments.ref_hit"],
        }

    def layers(self) -> dict:
        """Per-layer counts and times of the unit; percentiles are left to the caller."""
        c, s, i = self.calls, self.self_s, self.incl
        window = self.cell_wall
        busy = i["experiments.cell_solve"] + i["experiments.l2_error"]
        return {
            **self.counts(),
            "mesh.build_calls": c["mesh.build"],
            "mesh.build_s": s["mesh.build"],
            "mesh.locate_calls": c["mesh.locate"],
            "mesh.locate_s": s["mesh.locate"],
            "fem.assemble_s": s["fem.assemble"],
            "fem.factorize_s": s["fem.factorize"],
            "fem.solve_s": s["fem.solve"],
            "fem.point_load_calls": c["fem.point_load"],
            "fem.point_load_s": s["fem.point_load"],
            "fem.pwc_load_s": s["fem.pwc_load"],
            "fem.evaluate_calls": c["fem.evaluate"],
            "fem.evaluate_s": s["fem.evaluate"],
            "control.pi0_calls": c["control.pi0"],
            "control.pi0_s": s["control.pi0"],
            "control.write_s": s["control.write"],
            "control.write_bytes": self.write_bytes,
            "control.read_s": s["control.read"],
            "control.l2_error_s": s["control.l2_error"],
            "objective.state_s": s["objective.state"],
            "objective.adjoints_s": s["objective.adjoints"],
            "objective.grad_s": s["objective.grad"],
            "scalarize.bb_self_s": s["scalarize.bb"],
            "experiments.ref_solve_s": i["experiments.ref_solve"],
            "experiments.cell_solve_s": i["experiments.cell_solve"],
            "experiments.cell_concurrency": busy / window if window > 0 else 0.0,
            "experiments.system_builds": c["experiments.system_build"],
            "cli.main_s": i["cli.main"],
        }

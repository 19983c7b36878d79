"""Projected Barzilai-Borwein solver and Pareto-front sweep drivers.

The scalar subproblems (weighted sums and reference-point distances) are
minimized over the box-constrained piecewise-constant controls with a
non-monotone BB projected gradient iteration; the sweep drivers trace the
Pareto front by varying the weight or walking the reference point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .control import BoxBounds, PwcControl, clip_to_box
from .fem import LINEAR_TOL, StiffnessSystem
from .objective import (
    ObjectivePair,
    ProblemData,
    StateAdjointBundle,
    _check_weights,
    eval_objectives,
    grad_rpm,
    grad_wsm,
    greens_function_means,
    reduced_bundle,
)

__all__ = [
    "BBConfig",
    "SolveReport",
    "FrontEntry",
    "ParetoFront",
    "bb_projected_gradient",
    "solve_wsm",
    "solve_rpm",
    "wsm_front",
    "next_reference_point",
    "rpm_front",
    "ideal_vector",
]

# Relative threshold below which the BB curvature denominator counts as
# degenerate and the fallback step length ``1/t`` is used instead.
_CURVATURE_TOL = 1e-14
_FALLBACK_STEP = 1.0

GradEval = Callable[[PwcControl], tuple[PwcControl, ObjectivePair]]


@dataclass
class BBConfig:
    """Stopping threshold and iteration cap of the BB iteration."""

    tol: float = 1e-8
    max_iter: int = 5000

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf or self.max_iter <= 0:
            raise ValueError("tol must be positive and finite, max_iter positive")
        if not self.tol > LINEAR_TOL:
            raise ValueError("outer tolerance must exceed the linear-solver tolerance")


@dataclass
class SolveReport:
    """Converged (or last) control with diagnostics of the run."""

    control: PwcControl
    objectives: ObjectivePair
    iterations: int
    final_residual: float
    converged: bool
    solve_count: int = 0  # linear solves this call made; 0 once the problem holds the level's means
    fallback_steps: int = 0
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FrontEntry:
    """One swept point: the scalarization parameter and its solve report."""

    method: str
    parameter: tuple
    report: SolveReport


@dataclass
class ParetoFront:
    """Sweep-ordered collection of scalarized solutions."""

    entries: list
    meta: dict = field(default_factory=dict)

    def objective_array(self) -> np.ndarray:
        return np.array([[e.report.objectives.j1, e.report.objectives.j2] for e in self.entries])

    def parameters(self) -> list:
        return [e.parameter for e in self.entries]


def _check_eps(eps: float) -> None:
    """The endpoint weights ``(1-eps, eps)`` and ``(eps, 1-eps)`` keep their order."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")


def _require_feasible(u: PwcControl, bounds: BoxBounds, name: str) -> None:
    if not np.array_equal(np.clip(u.values, bounds.ua, bounds.ub), u.values):
        raise ValueError(f"{name} must lie within the box bounds")


def bb_projected_gradient(
    problem: ProblemData,
    grad_eval: GradEval,
    u0: PwcControl,
    u_minus1: PwcControl,
    config: BBConfig,
) -> SolveReport:
    """Box-projected Barzilai-Borwein iteration for a scalarized objective.

    ``grad_eval`` maps a control to its gradient representer and objective
    pair.  Iterates follow ``u <- clip(u - (1/t) g)`` with the BB quotient
    ``t = |dg|^2 / (dg, du)``; the loop stops once the step-to-unit-step
    gap ``|u_next - clip(u - g)|`` and the fixed-point residual of the
    accepted iterate both fall below ``config.tol``.  Exhausting
    ``max_iter`` returns a non-converged report instead of raising.
    Degenerate or nonpositive curvature denominators fall back to a unit
    step and are counted in the report.
    """
    bounds = problem.bounds
    _require_feasible(u0, bounds, "u0")
    _require_feasible(u_minus1, bounds, "u_minus1")
    if np.array_equal(u0.values, u_minus1.values):
        raise ValueError("the two starting iterates must differ")

    area = u0.mesh.element_area
    g_prev, _ = grad_eval(u_minus1)
    g, objectives = grad_eval(u0)
    u_prev, u = u_minus1, u0

    fallbacks = 0
    iterations = 0
    step_gap = np.inf
    converged = False
    fp_residual = np.inf

    while iterations < config.max_iter:
        fixed_point = np.clip(u.values - g.values, bounds.ua, bounds.ub)
        fp_residual = np.sqrt(area * float(((u.values - fixed_point) ** 2).sum()))
        if step_gap <= config.tol and fp_residual <= config.tol:
            converged = True
            break

        dg = g.values - g_prev.values
        du = u.values - u_prev.values
        dg_sq = area * float(dg @ dg)
        curvature = area * float(dg @ du)
        du_sq = area * float(du @ du)
        if dg_sq == 0.0 or curvature <= _CURVATURE_TOL * np.sqrt(dg_sq * du_sq):
            step = _FALLBACK_STEP
            fallbacks += 1
        else:
            step = curvature / dg_sq  # 1 / t_l

        u_next = PwcControl(u.mesh, np.clip(u.values - step * g.values, bounds.ua, bounds.ub))
        gap = u_next.values - fixed_point
        step_gap = np.sqrt(area * float(gap @ gap))

        u_prev, g_prev = u, g
        u = u_next
        g, objectives = grad_eval(u)
        iterations += 1

    return SolveReport(
        control=u,
        objectives=objectives,
        iterations=iterations,
        final_residual=float(fp_residual),
        converged=converged,
        fallback_steps=fallbacks,
    )


def _solve(
    problem: ProblemData,
    system: StiffnessSystem,
    gradient: Callable[[StateAdjointBundle, PwcControl, ObjectivePair], PwcControl],
    config: BBConfig | None,
    u_start: PwcControl | None,
) -> SolveReport:
    """BB iteration from ``u_start`` (zero if absent) and a uniform in-box offset of it.

    The problem's first solve at a mesh level computes the Green's function
    means there, one solve per observation point, and keeps them on the
    problem; those solves are the report's ``solve_count``, which is 0 for
    every later solve at that level.  Each evaluation forms the bundle and
    the objective pair from the means with a few dense mat-vecs and hands
    both to ``gradient(bundle, u, j)``.
    """
    config = config or BBConfig()
    bounds = problem.bounds
    if not bounds.ub > bounds.ua:
        raise ValueError("box bounds must have a nonempty interior")
    mesh = system.mesh
    with problem._greens_lock:  # concurrent cells of one level share one precompute
        own = mesh.level not in problem._greens
        if own:
            problem._greens[mesh.level] = greens_function_means(problem, system)
    greens = problem._greens[mesh.level]

    def evaluate_control(u: PwcControl):
        bundle = reduced_bundle(problem, greens, u)
        j = eval_objectives(problem, u, bundle)
        return gradient(bundle, u, j), j

    if u_start is None:
        u_start = PwcControl(mesh, np.zeros(mesh.num_triangles))
    u0 = clip_to_box(u_start, bounds)
    delta = 1e-2 * min(1.0, bounds.ub - bounds.ua)
    u_minus1 = np.where(u0.values + delta <= bounds.ub, u0.values + delta, u0.values - delta)
    report = bb_projected_gradient(problem, evaluate_control, u0, PwcControl(mesh, u_minus1), config)
    report.solve_count = sum(map(len, greens)) if own else 0
    return report


def solve_wsm(
    problem: ProblemData,
    system: StiffnessSystem,
    alpha,
    config: BBConfig | None = None,
    u_start: PwcControl | None = None,
) -> SolveReport:
    """Minimize the weighted sum of the two criteria over the box."""
    alpha = _check_weights(alpha)
    return _solve(problem, system, lambda b, u, j: grad_wsm(problem, b, u, alpha), config, u_start)


def solve_rpm(
    problem: ProblemData,
    system: StiffnessSystem,
    zeta,
    config: BBConfig | None = None,
    u_start: PwcControl | None = None,
) -> SolveReport:
    """Minimize the squared distance of the objective pair to ``zeta``.

    The report's metadata flags whether the solution still dominates the
    reference point componentwise, the regime in which the distance
    objective is convex.
    """
    zeta = (float(zeta[0]), float(zeta[1]))
    if not np.all(np.isfinite(zeta)):
        raise ValueError("reference point must be finite")
    report = _solve(problem, system, lambda b, u, j: grad_rpm(problem, b, u, zeta, j), config, u_start)
    report.meta["zeta_dominated"] = bool(
        report.objectives.j1 > zeta[0] and report.objectives.j2 > zeta[1]
    )
    return report


def wsm_front(
    problem: ProblemData,
    system: StiffnessSystem,
    l_max: int,
    eps: float = 1e-3,
    config: BBConfig | None = None,
    cold_start: bool = False,
) -> ParetoFront:
    """Sweep the weighted-sum problem across ``l_max`` weights.

    The second weight runs through ``eps + (1 - 2 eps)(l-1)/(l_max-1)`` so
    both weights stay strictly inside (0, 1).  Entries warm-start from the
    previous solution unless ``cold_start`` is set; non-converged entries
    are recorded and the sweep continues.
    """
    if l_max < 2:
        raise ValueError("a sweep needs at least two points")
    _check_eps(eps)
    entries = []
    warm = None
    for ell in range(1, l_max + 1):
        a2 = eps + (1.0 - 2.0 * eps) * (ell - 1) / (l_max - 1)
        alpha = (1.0 - a2, a2)
        report = solve_wsm(problem, system, alpha, config, u_start=None if cold_start else warm)
        entries.append(FrontEntry("wsm", alpha, report))
        if not cold_start:
            warm = report.control
    return ParetoFront(entries)


def next_reference_point(zeta_prev, j_current, h_perp: float, h_par: float) -> np.ndarray:
    """Walk the reference point along the front.

    Offsets the current objective pair by ``h_perp`` along the unit
    direction of ``zeta_prev - j_current`` and ``h_par`` along its +90
    degree rotation.
    """
    zeta_prev = np.asarray(zeta_prev, dtype=np.float64)
    j_current = np.asarray(j_current, dtype=np.float64)
    eta_perp = zeta_prev - j_current
    norm = float(np.linalg.norm(eta_perp))
    if norm == 0.0:
        raise ValueError("reference point coincides with the objective value")
    eta_par = np.array([-eta_perp[1], eta_perp[0]])
    return j_current + (h_par / norm) * eta_par + (h_perp / norm) * eta_perp


def rpm_front(
    problem: ProblemData,
    system: StiffnessSystem,
    l_max: int,
    h_perp: float,
    h_par: float,
    eps: float = 1e-3,
    config: BBConfig | None = None,
    cold_start: bool = False,
) -> ParetoFront:
    """Trace the front with the reference-point method.

    Solves the two near-single-objective weighted-sum endpoints, seeds the
    first reference point below the initial objective pair, then alternates
    reference-point solves and geometric updates until the reference point
    passes the ending objective value or ``l_max - 1`` points were placed.
    Entries are ordered along the sweep with both endpoints included.
    """
    if l_max < 2:
        raise ValueError("a sweep needs at least two points")
    if not (0.0 < h_perp < np.inf and 0.0 < h_par < np.inf):
        raise ValueError("scaling parameters must be positive and finite")
    _check_eps(eps)
    report_init = solve_wsm(problem, system, (1.0 - eps, eps), config)
    report_end = solve_wsm(problem, system, (eps, 1.0 - eps), config)
    j_end_1 = report_end.objectives.j1

    zeta = np.array(
        [report_init.objectives.j1 - h_perp, report_init.objectives.j2 - h_par]
    )
    rpm_entries = []
    warm = report_init.control
    aborted = False
    ell = 1
    while zeta[0] < j_end_1 and ell <= l_max - 1:
        report = solve_rpm(problem, system, tuple(zeta), config, u_start=None if cold_start else warm)
        rpm_entries.append(FrontEntry("rpm", (float(zeta[0]), float(zeta[1])), report))
        if not cold_start:
            warm = report.control
        try:
            zeta = next_reference_point(zeta, report.objectives.as_array(), h_perp, h_par)
        except ValueError:
            aborted = True
            break
        ell += 1

    entries = (
        [FrontEntry("wsm", (1.0 - eps, eps), report_init)]
        + rpm_entries
        + [FrontEntry("wsm", (eps, 1.0 - eps), report_end)]
    )
    return ParetoFront(entries, meta={"aborted": aborted})


def ideal_vector(
    problem: ProblemData,
    system: StiffnessSystem,
    eps: float = 1e-3,
    config: BBConfig | None = None,
) -> np.ndarray:
    """Componentwise-minimal objective values, approximated at weights
    ``(1-eps, eps)`` and ``(eps, 1-eps)`` since strictly single-objective
    weights are excluded."""
    _check_eps(eps)
    r1 = solve_wsm(problem, system, (1.0 - eps, eps), config)
    r2 = solve_wsm(problem, system, (eps, 1.0 - eps), config)
    return np.array([r1.objectives.j1, r2.objectives.j2])

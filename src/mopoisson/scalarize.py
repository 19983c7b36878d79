"""Projected Barzilai-Borwein solver and Pareto-front sweep drivers.

The scalar subproblems (weighted sums and reference-point distances) are
minimized over the box-constrained piecewise-constant controls with a
non-monotone BB projected gradient iteration; the sweep drivers trace the
Pareto front by varying the weight or walking the reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .control import BoxBounds
from .fem import LINEAR_TOL, SolverError, StiffnessSystem
from .mesh import TriMesh, mesh_of
from .objective import (
    ObjectivePair,
    ProblemData,
    _check_reference_point,
    _check_weights,
    _coefficients,
    _residuals,
    _weighted_gradient,
    eval_objectives,
    greens_function_means,
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

GradEval = Callable[[np.ndarray], tuple[np.ndarray, ObjectivePair | None]]


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
    """Converged (or last) control values with diagnostics of the run."""

    control: np.ndarray
    objectives: ObjectivePair | None
    iterations: int
    final_residual: float
    converged: bool
    solve_count: int = 0  # linear solves this call made; 0 once the problem holds the level's means
    fallback_steps: int = 0


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

    def objective_array(self) -> np.ndarray:
        return np.array([[e.report.objectives.j1, e.report.objectives.j2] for e in self.entries])


def _check_eps(eps: float) -> None:
    """The endpoint weights ``(1-eps, eps)`` and ``(eps, 1-eps)`` keep their order."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")


def _require_feasible(u: np.ndarray, bounds: BoxBounds, name: str) -> None:
    # min and max are NaN if a value is, and then both comparisons fail
    if not (bounds.ua <= u.min() and u.max() <= bounds.ub):
        raise ValueError(f"{name} must lie within the box bounds")


def bb_projected_gradient(
    problem: ProblemData,
    grad_eval: GradEval,
    u0: np.ndarray,
    u_minus1: np.ndarray,
    config: BBConfig,
) -> SolveReport:
    """Box-projected Barzilai-Borwein iteration for a scalarized objective.

    ``grad_eval`` maps control values to the values of their gradient
    representer and their objective pair, or ``None`` for a caller that
    forms the pair itself; the report holds the pair of the last
    evaluation.
    Iterates follow ``u <- clip(u - (1/t) g)`` with the BB quotient ``t =
    |dg|^2 / (dg, du)``; the loop stops once the step-to-unit-step
    gap ``|u_next - clip(u - g)|`` and the fixed-point residual of the
    accepted iterate both fall below ``config.tol``.  Exhausting
    ``max_iter`` returns a non-converged report instead of raising.  The
    residual is formed only where it counts: in passes whose gap is below
    ``tol``, and in the last pass, whose residual the report of an
    exhausted loop holds.
    Degenerate or nonpositive curvature denominators fall back to a unit
    step and are counted in the report.  The starting values and the
    gradients of ``grad_eval`` are never written.

    The loop drops its references to ``u0`` and ``u_minus1`` once it has
    read them, and each previous iterate and gradient
    right after their last read: at most six N-vectors are alive.  On
    CPython >= 3.11 a Python-to-Python call hands the caller's argument
    references to the callee, so starting controls that the caller built
    as call temporaries are freed two iterations in; on 3.10 the caller's
    evaluation stack keeps them alive for the whole call.
    """
    bounds = problem.bounds
    _require_feasible(u0, bounds, "u0")
    _require_feasible(u_minus1, bounds, "u_minus1")
    if np.array_equal(u0, u_minus1):
        raise ValueError("the two starting iterates must differ")

    area = mesh_of(u0).element_area
    ua, ub = bounds.ua, bounds.ub
    tol, max_iter = config.tol, config.max_iter
    u_prev, u = u_minus1, u0
    del u0, u_minus1
    g_prev, _ = grad_eval(u_prev)
    g, objectives = grad_eval(u)

    fallbacks = 0
    iterations = 0
    step_gap = math.inf
    converged = False
    fp_residual = math.inf

    while iterations < max_iter:
        # Three fresh arrays, reused in place: dg -> u_next, fixed_point -> step gap, du -> u - u_prev.
        # dg comes first: formed after du, glibc trimmed and refaulted the heap top in most
        # iterations of a cold L8 front (123k instead of 43k minor faults).
        dg = np.subtract(g, g_prev)
        del g_prev
        fixed_point = np.subtract(u, g)
        fixed_point.clip(ua, ub, out=fixed_point)
        if step_gap <= tol or iterations + 1 == max_iter:
            du = np.subtract(u, fixed_point)
            fp_residual = math.sqrt(area * float(np.square(du, out=du).sum()))
            if step_gap <= tol and fp_residual <= tol:
                converged = True
                break
            np.subtract(u, u_prev, out=du)
        else:
            du = np.subtract(u, u_prev)
        del u_prev
        dg_sq = area * float(dg @ dg)
        curvature = area * float(dg @ du)
        du_sq = area * float(du @ du)
        if dg_sq == 0.0 or curvature <= _CURVATURE_TOL * math.sqrt(dg_sq * du_sq):
            step = _FALLBACK_STEP
            fallbacks += 1
        else:
            step = curvature / dg_sq  # 1 / t_l

        u_next = np.multiply(g, step, out=dg)
        np.subtract(u, u_next, out=u_next)
        u_next.clip(ua, ub, out=u_next)
        np.subtract(u_next, fixed_point, out=fixed_point)
        step_gap = math.sqrt(area * float(fixed_point @ fixed_point))

        u_prev, g_prev = u, g
        u = u_next
        del fixed_point, du  # freed before the gradient allocates, whose arrays then reuse them
        g, objectives = grad_eval(u)
        iterations += 1

    return SolveReport(
        control=u,
        objectives=objectives,
        iterations=iterations,
        final_residual=fp_residual,
        converged=converged,
        fallback_steps=fallbacks,
    )


def _start_values(mesh: TriMesh, bounds: BoxBounds, u_start: np.ndarray | None) -> np.ndarray:
    """Fresh values of ``u_start`` clipped to the box; zero if absent."""
    values = np.broadcast_to(0.0, mesh.num_triangles) if u_start is None else u_start
    if np.shape(values) != (mesh.num_triangles,):
        raise ValueError(f"u_start of shape {np.shape(values)} is no control of level {mesh.level}")
    return np.clip(values, bounds.ua, bounds.ub)


def _offset_values(values: np.ndarray, bounds: BoxBounds) -> np.ndarray:
    """``values`` moved up by a uniform in-box ``delta``, or down where up leaves the box."""
    delta = 1e-2 * min(1.0, bounds.ub - bounds.ua)
    offset = values + delta
    return np.subtract(values, delta, out=offset, where=offset > bounds.ub)


def _solve(
    problem: ProblemData,
    system: StiffnessSystem,
    config: BBConfig | None,
    u_start: np.ndarray | None,
    alpha: tuple[float, float] | None = None,
    zeta: tuple[float, float] | None = None,
) -> SolveReport:
    """BB iteration from ``u_start`` (zero if absent) and a uniform in-box offset of it.

    Minimizes ``alpha . j`` if ``alpha`` is given, else ``|j - zeta|^2 / 2``.
    The problem's first solve at a mesh level computes the Green's function
    means there, one solve per observation point, and keeps them on the
    problem; those solves are the report's ``solve_count``, which is 0 for
    every later solve at that level.  Each evaluation forms the residuals
    ``r`` of the values ``u`` from the means ``G`` with one mat-vec and the
    gradient ``G^T (c r) + lam u`` with another.  The weighted-sum
    coefficients are fixed, so those evaluations skip the objective pair,
    which is formed once from the final iterate; the reference-point
    coefficients ``j - zeta`` need it in every evaluation.
    """
    config = config or BBConfig()
    bounds = problem.bounds
    if not bounds.ub > bounds.ua:
        raise ValueError("box bounds must have a nonempty interior")
    mesh = system.mesh
    own = mesh.level not in problem._greens
    if own:
        problem._greens[mesh.level] = greens_function_means(problem, system)
    greens = problem._greens[mesh.level]
    area = mesh.element_area

    if alpha is not None:
        c, lam = _coefficients(problem, *alpha)

        def evaluate_control(u: np.ndarray):
            return _weighted_gradient(greens, _residuals(problem, greens, area, u), u, c, lam), None

    else:
        z1, z2 = zeta

        def evaluate_control(u: np.ndarray):
            r, j = eval_objectives(problem, greens, area, u)
            return _weighted_gradient(greens, r, u, *_coefficients(problem, j.j1 - z1, j.j2 - z2)), j

    # Both starting controls are call temporaries with no name here, so the
    # loop can free them (see bb_projected_gradient); the start is clipped
    # twice rather than kept alive for the offset.
    report = bb_projected_gradient(
        problem,
        evaluate_control,
        _start_values(mesh, bounds, u_start),
        _offset_values(_start_values(mesh, bounds, u_start), bounds),
        config,
    )
    if alpha is not None:
        report.objectives = eval_objectives(problem, greens, area, report.control)[1]
    report.solve_count = len(greens) if own else 0
    return report


def solve_wsm(
    problem: ProblemData,
    system: StiffnessSystem,
    alpha,
    config: BBConfig | None = None,
    u_start: np.ndarray | None = None,
) -> SolveReport:
    """Minimize the weighted sum of the two criteria over the box."""
    return _solve(problem, system, config, u_start, alpha=_check_weights(alpha))


def solve_rpm(
    problem: ProblemData,
    system: StiffnessSystem,
    zeta,
    config: BBConfig | None = None,
    u_start: np.ndarray | None = None,
) -> SolveReport:
    """Minimize the squared distance of the objective pair to ``zeta``."""
    return _solve(problem, system, config, u_start, zeta=_check_reference_point(zeta))


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
    ell = 1
    while zeta[0] < j_end_1 and ell <= l_max - 1:
        report = solve_rpm(problem, system, tuple(zeta), config, u_start=None if cold_start else warm)
        rpm_entries.append(FrontEntry("rpm", (float(zeta[0]), float(zeta[1])), report))
        if not cold_start:
            warm = report.control
        try:
            zeta = next_reference_point(zeta, report.objectives.as_array(), h_perp, h_par)
        except ValueError:
            break
        ell += 1

    entries = (
        [FrontEntry("wsm", (1.0 - eps, eps), report_init)]
        + rpm_entries
        + [FrontEntry("wsm", (eps, 1.0 - eps), report_end)]
    )
    return ParetoFront(entries)


def ideal_vector(
    problem: ProblemData,
    system: StiffnessSystem,
    eps: float = 1e-3,
    config: BBConfig | None = None,
) -> np.ndarray:
    """Componentwise-minimal objective values, approximated at weights
    ``(1-eps, eps)`` and ``(eps, 1-eps)`` since strictly single-objective
    weights are excluded; an endpoint solve that does not converge raises
    :class:`~mopoisson.fem.SolverError` carrying its BB residual."""
    _check_eps(eps)
    r1 = solve_wsm(problem, system, (1.0 - eps, eps), config)
    r2 = solve_wsm(problem, system, (eps, 1.0 - eps), config)
    for report in (r1, r2):
        if not report.converged:
            raise SolverError(f"endpoint solve did not converge, residual {report.final_residual:.3e}",
                              residual=report.final_residual)
    return np.array([r1.objectives.j1, r2.objectives.j2])

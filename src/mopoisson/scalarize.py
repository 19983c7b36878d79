"""Projected Barzilai-Borwein solver and Pareto-front sweep drivers.

The scalar subproblems (weighted sums and reference-point distances) are
minimized over the box-constrained piecewise-constant controls with a
non-monotone BB projected gradient iteration; the sweep drivers trace the
Pareto front by varying the weight or walking the reference point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .control import BoxBounds, prolong
from .fem import LINEAR_TOL, SolverError, StiffnessSystem
from .mesh import TriMesh
from .objective import (
    ObjectivePair,
    ProblemData,
    _check_reference_point,
    _check_weights,
    coefficient_map,
    eval_objectives,
    gram_matrix,
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

# Relative BB curvature ``(dg, du) / (|dg| |du|)`` below which the unit step is taken instead.
_CURVATURE_TOL = 1e-14


@dataclass
class BBConfig:
    """Stopping threshold and iteration cap of the BB iteration."""

    tol: float = 1e-8
    max_iter: int = 5000

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")
        if not self.tol > LINEAR_TOL:
            raise ValueError("outer tolerance must exceed the linear-solver tolerance")


@dataclass
class SolveReport:
    """Converged (or last) control values with diagnostics of the run."""

    control: np.ndarray
    objectives: ObjectivePair | None  # the pair of control; None from bb_projected_gradient
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


def _check_sweep(l_max, eps: float, *offsets: float) -> None:
    """An integer sweep size of at least 2, :func:`_check_eps`, and positive finite reference-point offsets."""
    if not (isinstance(l_max, numbers.Integral) and l_max >= 2):
        raise ValueError(f"front sizes must be at least 2 and an integer, got {l_max!r}")
    if not all(0.0 < h < np.inf for h in offsets):
        raise ValueError("scaling parameters must be positive and finite")
    _check_eps(eps)


def bb_projected_gradient(
    greens: np.ndarray,
    gram: np.ndarray,
    coefficients: tuple[Callable, bool],
    mesh: TriMesh,
    bounds: BoxBounds,
    config: BBConfig,
    u_start: np.ndarray | None = None,
) -> SolveReport:
    """Box-projected Barzilai-Borwein iteration in adjoint form; the report's ``objectives`` is None.

    The gradient at ``u`` is ``g = G^T w + lam u``, where ``G`` is
    ``greens``, ``gram`` is ``M = G G^T`` and ``coefficients`` is a map
    ``(G u, u.u) -> (w, lam)`` with a flag that says whether ``lam`` moves
    with ``u``; ``u.u`` is formed only then, and None is passed otherwise.
    The two-point iteration starts from ``u_start`` (zero if absent)
    clipped to ``bounds``, and from that start moved up by ``delta``, or
    down where up passes ``ub``; a start holding a NaN is refused.  A
    ``u_start`` of a coarser level, read from its length, is prolonged into
    the iterate and clipped there.  The offset ``delta`` is a hundredth of
    the box width, at most 1e-2, and at least four float spacings of the
    bounds, so it moves every value in the box; a box narrower than two
    offsets is refused.
    Iterates follow ``u <- clip(u - s g)`` with the BB step ``s = (dg, du)
    / |dg|^2``, formed as ``clip((1 - s lam) u - s v)`` from ``v = G^T w``;
    ``g`` is never formed.  The loop stops once the gap ``|u_next - clip((1
    - lam) u - v)|`` to the unit step and the fixed-point residual of the
    accepted iterate both fall below ``config.tol``; it forms the residual
    only in passes whose gap is below ``tol`` and in the last pass, whose
    residual the report of an exhausted loop holds.  Exhausting
    ``max_iter`` returns a non-converged report instead of raising.
    With ``du = u - u_prev``, ``Gdu = G u - G u_prev``, ``dw`` and
    ``dlam``, ``dg = G^T dw + lam du + dlam u_prev``, so one ``N``-pass
    gives ``du.du``, plus ``du.u_prev`` where ``lam`` changed, and the rest
    is ``n_obs`` algebra::

        (dg, du) = dw.Gdu + lam |du|^2 + dlam du.u_prev
        |dg|^2   = dw.M dw + 2 dw.(lam Gdu + dlam G u_prev)
                   + lam^2 |du|^2 + 2 lam dlam du.u_prev + dlam^2 |u_prev|^2

    For fixed weights ``dlam`` is 0 and every term is nonnegative; where
    ``lam`` moves (reference points) the ``dlam`` terms can cancel the
    others.  A ``|dg|^2`` at or below 0, or a curvature ``(dg, du)`` below
    ``1e-14 |dg| |du|``, takes a unit step, counted in the report.  The loop
    owns four ``N``-vectors, the iterate, the previous one, ``v`` and a
    spare, and writes every pass into them; ``u_start`` is never written.
    """
    ua, ub = bounds.ua, bounds.ub
    delta = max(1e-2 * min(1.0, ub - ua), 4.0 * float(np.spacing(max(abs(ua), abs(ub)))))
    if not ub - ua >= 2.0 * delta:
        raise ValueError(f"box bounds {ua!r},{ub!r} are too narrow to hold two distinct starting controls")
    u = np.zeros(mesh.num_triangles) if u_start is None else u_start
    if np.shape(u) == (mesh.num_triangles,):
        u = np.clip(u, ua, ub)
    else:
        try:  # a coarser start: prolong returns a fresh array, the iterate
            u = prolong(np.asarray(u, dtype=np.float64), mesh.level)
        except ValueError:
            raise ValueError(f"u_start of shape {np.shape(u)} is no control of a level up to {mesh.level}") from None
        np.clip(u, ua, ub, out=u)
    if math.isnan(u.min()):  # min is NaN if a value is
        raise ValueError("u_start holds a NaN value")
    u_prev = u + delta
    np.subtract(u, delta, out=u_prev, where=u_prev > ub)

    rule, varying = coefficients

    def evaluate(x: np.ndarray) -> tuple:  # G x, x.x (None for a fixed lam), w and lam
        Gx, xx = greens.dot(x), x.dot(x) if varying else None
        return (Gx, xx, *rule(Gx, xx))

    lo, hi = np.array(ua), np.array(ub)
    area, tol, max_iter = mesh.element_area, config.tol, config.max_iter
    Gu_prev, uu_prev, w_prev, lam_prev = evaluate(u_prev)
    Gu, uu, w, lam = evaluate(u)
    v = w.dot(greens)
    spare = np.empty_like(u)

    fallbacks = iterations = 0
    step_gap = fp_residual = math.inf
    converged = False
    while iterations < max_iter:
        du = np.subtract(u, u_prev, out=spare)
        du_sq = du.dot(du)
        dw, dlam = w - w_prev, lam - lam_prev
        dw_Gdu = dw.dot(Gu - Gu_prev)
        curvature = dw_Gdu + lam * du_sq
        dg_sq = dw.dot(gram.dot(dw)) + 2.0 * lam * dw_Gdu + lam * lam * du_sq
        if dlam:
            du_up = du.dot(u_prev)
            curvature += dlam * du_up
            dg_sq += 2.0 * dlam * (dw.dot(Gu_prev) + lam * du_up) + dlam * dlam * uu_prev
        fixed_point = np.multiply(u, 1.0 - lam, out=u_prev)  # u_prev is spent
        fixed_point -= v
        fixed_point.clip(lo, hi, out=fixed_point)
        if step_gap <= tol or iterations + 1 == max_iter:
            np.subtract(u, fixed_point, out=du)
            fp_residual = math.sqrt(area * du.dot(du))
            if step_gap <= tol and fp_residual <= tol:
                converged = True
                break
        if dg_sq <= 0.0 or curvature <= _CURVATURE_TOL * math.sqrt(dg_sq * du_sq):
            step = 1.0
            fallbacks += 1
        else:
            step = curvature / dg_sq

        u_next = np.multiply(u, 1.0 - step * lam, out=du)
        v *= step
        u_next -= v
        u_next.clip(lo, hi, out=u_next)
        spare = np.subtract(u_next, fixed_point, out=fixed_point)
        step_gap = math.sqrt(area * spare.dot(spare))

        u_prev, Gu_prev, uu_prev, w_prev, lam_prev = u, Gu, uu, w, lam
        u, (Gu, uu, w, lam) = u_next, evaluate(u_next)
        w.dot(greens, out=v)
        iterations += 1

    return SolveReport(control=u, objectives=None, iterations=iterations, final_residual=fp_residual,
                       converged=converged, fallback_steps=fallbacks)


def _solve(
    problem: ProblemData,
    system: StiffnessSystem,
    config: BBConfig | None,
    u_start: np.ndarray | None,
    method: str,
    parameter: tuple[float, float],
) -> SolveReport:
    """BB iteration of :func:`bb_projected_gradient` from ``u_start``.

    Minimizes ``alpha . j`` for ``method`` "wsm" with weights ``alpha =
    parameter``, else ``|j - zeta|^2 / 2`` with ``zeta = parameter``.
    The problem's first solve at a mesh level computes the Green's function
    means there, one solve per observation point, and their Gram matrix,
    and keeps both on the problem; those solves are the report's
    ``solve_count``, which is 0 for every later solve at that level.  The BB
    loop runs on the means, their Gram matrix and the
    :func:`~mopoisson.objective.coefficient_map` of the scalarization; the
    report's pair is formed once, from the returned control.
    """
    mesh = system.mesh
    own = mesh.level not in problem._greens
    if own:
        greens = greens_function_means(problem, system)
        problem._greens[mesh.level] = greens, gram_matrix(greens)
    greens, gram = problem._greens[mesh.level]
    area = mesh.element_area
    rule = coefficient_map(problem, area, method, parameter)
    report = bb_projected_gradient(greens, gram, rule, mesh, problem.bounds, config or BBConfig(), u_start)
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
    return _solve(problem, system, config, u_start, "wsm", _check_weights(alpha))


def solve_rpm(
    problem: ProblemData,
    system: StiffnessSystem,
    zeta,
    config: BBConfig | None = None,
    u_start: np.ndarray | None = None,
) -> SolveReport:
    """Minimize the squared distance of the objective pair to ``zeta``."""
    return _solve(problem, system, config, u_start, "rpm", _check_reference_point(zeta))


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
    _check_sweep(l_max, eps)
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
    _check_sweep(l_max, eps, h_perp, h_par)
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

"""Independent reference computations the tests check the library against.

Everything here recomputes quantities through a different route than the
implementation: dense assembly from basis-coefficient solves, numerical
quadrature, finite differences, brute-force searches, centroid tests, and a
fixed-step projected-gradient optimizer.
"""

from __future__ import annotations

import math

import numpy as np

from mopoisson import (
    PwcControl,
    assemble_load_pwc,
    assemble_point_load,
    clip_to_box,
    eval_objectives,
    evaluate,
    grad_rpm,
    grad_wsm,
    l2_inner,
    l2_norm,
    pi0_project,
    solve_adjoints,
    solve_spd,
    solve_state,
)
from mopoisson.objective import rpm_value, wsm_value

# 3-point interior Gauss rule on the triangle, exact for quadratics.
_GAUSS_BARY = np.array([
    [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
])


def dense_stiffness_full(mesh) -> np.ndarray:
    """O(n^2) assembly over all nodes, gradients from coefficient solves."""
    n = mesh.num_nodes
    A = np.zeros((n, n))
    for tri in mesh.triangles:
        coords = mesh.nodes[tri]
        M = np.column_stack([np.ones(3), coords])
        C = np.linalg.inv(M)  # rows: basis coefficients (c0 + cx x + cy y)
        grads = C[1:, :]
        d1 = coords[1] - coords[0]
        d2 = coords[2] - coords[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        A[np.ix_(tri, tri)] += area * (grads.T @ grads)
    return A


def dense_stiffness_interior(mesh) -> np.ndarray:
    interior = np.flatnonzero(mesh.interior_mask)
    return dense_stiffness_full(mesh)[np.ix_(interior, interior)]


def five_point_laplacian(level: int) -> np.ndarray:
    """Classical 5-point stencil matrix over the interior grid nodes."""
    m = 2 ** level - 1
    A = np.zeros((m * m, m * m))
    for j in range(m):
        for i in range(m):
            k = j * m + i
            A[k, k] = 4.0
            if i > 0:
                A[k, k - 1] = -1.0
            if i < m - 1:
                A[k, k + 1] = -1.0
            if j > 0:
                A[k, k - m] = -1.0
            if j < m - 1:
                A[k, k + m] = -1.0
    return A


def quadrature_load_pwc(mesh, u: PwcControl) -> np.ndarray:
    """Interior load of a piecewise-constant source via the 3-point rule."""
    full = np.zeros(mesh.num_nodes)
    weight = mesh.element_area / 3.0
    for t, tri in enumerate(mesh.triangles):
        for bary in _GAUSS_BARY:
            full[tri] += u.values[t] * weight * bary
    return full[mesh.interior_mask]


def quadrature_element_integral(f, t: int) -> float:
    """Integral of a P1 function over one triangle via physical-point quadrature."""
    mesh = f.mesh
    points = _GAUSS_BARY @ mesh.nodes[mesh.triangles[t]]
    return float(evaluate(f, points).sum()) * mesh.element_area / 3.0


def brute_force_locate(mesh, p):
    """Lowest-index containing triangle by scanning every element."""
    x, y = float(p[0]), float(p[1])
    for t, tri in enumerate(mesh.triangles):
        pa, pb, pc = mesh.nodes[tri]
        M = np.array([[pb[0] - pa[0], pc[0] - pa[0]], [pb[1] - pa[1], pc[1] - pa[1]]])
        rhs = np.array([x - pa[0], y - pa[1]])
        w1, w2 = np.linalg.solve(M, rhs)
        bary = np.array([1.0 - w1 - w2, w1, w2])
        if bary.min() >= -1e-12:
            return t, bary
    raise AssertionError(f"no triangle contains {p}")


def parent_elements_closed_form(fine_level: int, coarse_level: int) -> np.ndarray:
    """Coarse ancestor of every fine triangle, located by its centroid.

    Coordinates are kept as integers in units of a third of a fine cell, so
    the centroid test is exact; no centroid lies on a coarse diagonal.
    """
    nf, nc = 2 ** fine_level, 2 ** coarse_level
    t = np.arange(2 * nf * nf)
    ix, iy, upper = (t // 2) % nf, (t // 2) // nf, t % 2
    cx, cy = 3 * ix + 2 - upper, 3 * iy + 1 + upper
    span = 3 * 2 ** (fine_level - coarse_level)
    jx, jy = cx // span, cy // span
    return 2 * (jy * nc + jx) + (cy - jy * span > cx - jx * span)


def scalarized_value(problem, system, u: PwcControl, kind: str, parameter) -> float:
    """Objective value of a scalarization, evaluated through public ops."""
    state = solve_state(problem, system, u)
    bundle = solve_adjoints(problem, system, state)
    j = eval_objectives(problem, u, bundle)
    return wsm_value(parameter, j) if kind == "wsm" else rpm_value(parameter, j)


def pde_grad_eval(problem, system, kind: str, parameter):
    """BB grad-eval of a scalarization through a state solve and two adjoint solves.

    Maps a control to its gradient representer and objective pair, like the
    solver's own evaluator, which takes both from the Green's function means.
    """

    def grad_eval(u: PwcControl):
        bundle = solve_adjoints(problem, system, solve_state(problem, system, u))
        j = eval_objectives(problem, u, bundle)
        if kind == "wsm":
            return grad_wsm(problem, bundle, u, parameter), j
        return grad_rpm(problem, bundle, u, parameter, j), j

    return grad_eval


def scalarized_gradient(problem, system, u: PwcControl, kind: str, parameter) -> PwcControl:
    return pde_grad_eval(problem, system, kind, parameter)(u)[0]


def central_difference(problem, system, u: PwcControl, w: PwcControl, kind: str, parameter,
                       step: float = 1e-5) -> float:
    """Central finite difference of the scalarized objective along ``w``."""
    up = PwcControl(u.mesh, u.values + step * w.values)
    um = PwcControl(u.mesh, u.values - step * w.values)
    fp = scalarized_value(problem, system, up, kind, parameter)
    fm = scalarized_value(problem, system, um, kind, parameter)
    return (fp - fm) / (2.0 * step)


def wsm_hessian_apply(problem, system, alpha, w: PwcControl) -> PwcControl:
    """Reduced Hessian of the weighted sum applied to a control direction."""
    state_w = solve_state(problem, system, w)
    c1 = evaluate(state_w, problem.obs1)
    c2 = evaluate(state_w, problem.obs2)
    q1 = solve_spd(system, assemble_point_load(system.mesh, problem.obs1, c1))
    q2 = solve_spd(system, assemble_point_load(system.mesh, problem.obs2, c2))
    values = alpha[0] * (pi0_project(q1).values + problem.lambda1 * w.values)
    values += alpha[1] * (pi0_project(q2).values + problem.lambda2 * w.values)
    return PwcControl(w.mesh, values)


def power_iteration_bound(problem, system, alpha, iterations: int = 60) -> float:
    """Largest reduced-Hessian eigenvalue by power iteration."""
    mesh = system.mesh
    w = PwcControl(mesh, np.ones(mesh.num_triangles))
    w = PwcControl(mesh, w.values / l2_norm(w))
    bound = 0.0
    for _ in range(iterations):
        hw = wsm_hessian_apply(problem, system, alpha, w)
        bound = l2_inner(w, hw)
        w = PwcControl(mesh, hw.values / l2_norm(hw))
    return bound


def fixed_step_projected_gradient(problem, system, alpha, step: float,
                                  tol: float = 1e-10, max_iter: int = 100000) -> PwcControl:
    """Plain projected gradient with a constant step; slow but reliable."""
    mesh = system.mesh
    u = clip_to_box(PwcControl(mesh, np.zeros(mesh.num_triangles)), problem.bounds)
    for _ in range(max_iter):
        g = scalarized_gradient(problem, system, u, "wsm", alpha)
        fixed_point = clip_to_box(PwcControl(mesh, u.values - g.values), problem.bounds)
        residual = l2_norm(PwcControl(mesh, u.values - fixed_point.values))
        if residual <= tol:
            return u
        u = clip_to_box(PwcControl(mesh, u.values - step * g.values), problem.bounds)
    raise AssertionError("projected-gradient oracle did not converge")


def reflect_triangle_permutation(mesh) -> np.ndarray:
    """Triangle permutation induced by reflecting across the diagonal y = x."""
    n = mesh.cells_per_side
    t = np.arange(mesh.num_triangles)
    cell = t // 2
    kind = t % 2
    i = cell % n
    j = cell // n
    return 2 * (i * n + j) + (1 - kind)


def reflect_problem(problem):
    """Swap the coordinate axes of every observation point."""
    from mopoisson import BoxBounds, ProblemData

    return ProblemData(
        obs1=problem.obs1[:, ::-1].copy(),
        y1=problem.y1.copy(),
        obs2=problem.obs2[:, ::-1].copy(),
        y2=problem.y2.copy(),
        lambda1=problem.lambda1,
        lambda2=problem.lambda2,
        bounds=BoxBounds(problem.bounds.ua, problem.bounds.ub),
    )


def manufactured_linf_error(mesh, system) -> float:
    """Nodal max error for the sin-sin Poisson problem with a pwc source."""
    centroids = mesh.nodes[mesh.triangles].mean(axis=1)
    source = 2.0 * math.pi ** 2 * np.sin(np.pi * centroids[:, 0]) * np.sin(np.pi * centroids[:, 1])
    u = PwcControl(mesh, source)
    y = solve_spd(system, assemble_load_pwc(mesh, u))
    exact = np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
    return float(np.abs(y.nodal_values - exact).max())


def vi_min_slack(problem, u_bar: PwcControl, gradient: PwcControl, rng,
                 samples: int = 100) -> float:
    """Worst sampled value of (gradient, u - u_bar) over random feasible u."""
    worst = np.inf
    for _ in range(samples):
        u = PwcControl(
            u_bar.mesh,
            rng.uniform(problem.bounds.ua, problem.bounds.ub, u_bar.mesh.num_triangles),
        )
        diff = PwcControl(u_bar.mesh, u.values - u_bar.values)
        worst = min(worst, l2_inner(gradient, diff))
    return worst


def pareto_ordered(objectives: np.ndarray, slack: float = 1e-8) -> bool:
    """j1 nondecreasing and j2 nonincreasing along the sweep, up to slack."""
    j1, j2 = objectives[:, 0], objectives[:, 1]
    return bool(np.all(np.diff(j1) >= -slack) and np.all(np.diff(j2) <= slack))


def mutually_nondominated(objectives: np.ndarray, slack: float = 1e-8) -> bool:
    """No pair where one entry beats another in both objectives beyond slack."""
    for a in range(objectives.shape[0]):
        for b in range(objectives.shape[0]):
            if a == b:
                continue
            ja, jb = objectives[a], objectives[b]
            weakly_better = ja[0] <= jb[0] + slack and ja[1] <= jb[1] + slack
            strictly_better = ja[0] < jb[0] - slack or ja[1] < jb[1] - slack
            if weakly_better and strictly_better:
                return False
    return True

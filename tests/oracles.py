"""Independent reference computations the tests check the library against.

Everything here recomputes quantities through a different route than the
implementation: explicit node and triangle arrays, dense assembly from
basis-coefficient solves, numerical quadrature, finite differences,
brute-force searches, centroid tests, a fixed-step projected-gradient
optimizer, and the BB loop with one fresh array per operation.
"""

from __future__ import annotations

import math

import numpy as np

from mopoisson import (
    ObjectivePair,
    PwcControl,
    SolveReport,
    assemble_load_pwc,
    assemble_point_load,
    clip_to_box,
    evaluate,
    l2_inner,
    l2_norm,
    pi0_project,
    solve_adjoints,
    solve_spd,
    solve_state,
)
from mopoisson.mesh import locate_point

# 3-point interior Gauss rule on the triangle, exact for quadratics.
_GAUSS_BARY = np.array([
    [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
])


def mesh_nodes(mesh) -> np.ndarray:
    """Node coordinates ``(num_nodes, 2)``: node ``iy*(n+1) + ix`` at ``(ix/n, iy/n)``."""
    n = mesh.cells_per_side
    side = np.arange(n + 1, dtype=np.float64) / n
    xs, ys = np.meshgrid(side, side)
    return np.column_stack([xs.ravel(), ys.ravel()])


def mesh_triangles(mesh) -> np.ndarray:
    """Counter-clockwise vertex indices ``(num_triangles, 3)``, two triangles per cell."""
    n = mesh.cells_per_side
    ix, iy = np.meshgrid(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64))
    v00 = (iy * (n + 1) + ix).ravel()
    v10, v01 = v00 + 1, v00 + (n + 1)
    v11 = v01 + 1
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([v00, v10, v11])
    triangles[1::2] = np.column_stack([v00, v11, v01])
    return triangles


def interior_mask(mesh) -> np.ndarray:
    """False exactly for the nodes on the first or last grid row or column."""
    n = mesh.cells_per_side
    gx, gy = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    return ((gx > 0) & (gx < n) & (gy > 0) & (gy < n)).ravel()


def interior_nodes(mesh) -> np.ndarray:
    """Node index of every unknown of the stiffness system."""
    return np.flatnonzero(interior_mask(mesh))


def gather_pi0(f) -> np.ndarray:
    """Element means by gathering each triangle's three nodal values."""
    return f.nodal_values[mesh_triangles(f.mesh)].mean(axis=1)


def gather_load_pwc(mesh, u: PwcControl) -> np.ndarray:
    """Interior load of a piecewise-constant source, scattered vertex by vertex."""
    full = np.zeros(mesh.num_nodes)
    np.add.at(full, mesh_triangles(mesh).ravel(), np.repeat(u.values * (mesh.element_area / 3.0), 3))
    return full[interior_mask(mesh)]


def gather_point_load(mesh, points, coeffs) -> np.ndarray:
    """Interior Dirac load, scattered to the vertices of the located triangles."""
    elements, bary = locate_point(mesh, points)
    full = np.zeros(mesh.num_nodes)
    np.add.at(full, mesh_triangles(mesh)[elements], bary * np.atleast_1d(coeffs)[:, None])
    return full[interior_mask(mesh)]


def gather_evaluate(f, points) -> np.ndarray:
    """Values at ``points`` from the nodal values of the located triangles' vertices."""
    elements, bary = locate_point(f.mesh, points)
    return (bary * f.nodal_values[mesh_triangles(f.mesh)[elements]]).sum(axis=1)


def gather_greens_means(problem, system) -> np.ndarray:
    """Element means of the Green's function of every observation point, by gathers."""
    points = np.concatenate((problem.obs1, problem.obs2))
    return np.array([gather_pi0(solve_spd(system, gather_point_load(system.mesh, x, 1.0))) for x in points])


def dense_stiffness_full(mesh) -> np.ndarray:
    """O(n^2) assembly over all nodes, gradients from coefficient solves."""
    n = mesh.num_nodes
    A = np.zeros((n, n))
    nodes = mesh_nodes(mesh)
    for tri in mesh_triangles(mesh):
        coords = nodes[tri]
        M = np.column_stack([np.ones(3), coords])
        C = np.linalg.inv(M)  # rows: basis coefficients (c0 + cx x + cy y)
        grads = C[1:, :]
        d1 = coords[1] - coords[0]
        d2 = coords[2] - coords[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        A[np.ix_(tri, tri)] += area * (grads.T @ grads)
    return A


def dense_stiffness_interior(mesh) -> np.ndarray:
    interior = interior_nodes(mesh)
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
    for t, tri in enumerate(mesh_triangles(mesh)):
        for bary in _GAUSS_BARY:
            full[tri] += u.values[t] * weight * bary
    return full[interior_mask(mesh)]


def quadrature_element_integral(f, t: int) -> float:
    """Integral of a P1 function over one triangle via physical-point quadrature."""
    mesh = f.mesh
    points = _GAUSS_BARY @ mesh_nodes(mesh)[mesh_triangles(mesh)[t]]
    return float(evaluate(f, points).sum()) * mesh.element_area / 3.0


def brute_force_locate(mesh, p):
    """Lowest-index containing triangle by scanning every element."""
    x, y = float(p[0]), float(p[1])
    nodes = mesh_nodes(mesh)
    for t, tri in enumerate(mesh_triangles(mesh)):
        pa, pb, pc = nodes[tri]
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


def pde_objectives(problem, system, u: PwcControl):
    """Objective pair and per-set adjoint means of ``u`` by a state solve and two adjoint solves."""
    (r1, m1), (r2, m2) = solve_adjoints(problem, system, solve_state(problem, system, u))
    control_cost = l2_norm(u) ** 2
    j = ObjectivePair(
        0.5 * float(r1 @ r1) + 0.5 * problem.lambda1 * control_cost,
        0.5 * float(r2 @ r2) + 0.5 * problem.lambda2 * control_cost,
    )
    return j, (m1, m2)


def scalarization(kind: str, parameter, j) -> float:
    """Weighted sum (``wsm``) or half the squared distance to the reference point (``rpm``)."""
    if kind == "wsm":
        return parameter[0] * j.j1 + parameter[1] * j.j2
    return 0.5 * ((j.j1 - parameter[0]) ** 2 + (j.j2 - parameter[1]) ** 2)


def scalarized_value(problem, system, u: PwcControl, kind: str, parameter) -> float:
    """Objective value of a scalarization, evaluated by the PDE route."""
    return scalarization(kind, parameter, pde_objectives(problem, system, u)[0])


def pde_grad_eval(problem, system, kind: str, parameter):
    """BB grad-eval of a scalarization through a state solve and two adjoint solves.

    Maps control values to the values of the gradient representer
    ``sum_k c_k (m_k + lambda_k u)`` and the objective pair, like the
    solver's own evaluator, which takes both from the Green's function means.
    The coefficients ``c`` are the weights (``wsm``) or ``j - zeta`` (``rpm``).
    """
    mesh = system.mesh

    def grad_eval(values: np.ndarray):
        u = PwcControl(mesh, values)
        j, (m1, m2) = pde_objectives(problem, system, u)
        c1, c2 = parameter if kind == "wsm" else (j.j1 - parameter[0], j.j2 - parameter[1])
        return c1 * (m1 + problem.lambda1 * u.values) + c2 * (m2 + problem.lambda2 * u.values), j

    return grad_eval


def scalarized_gradient(problem, system, u: PwcControl, kind: str, parameter) -> PwcControl:
    return PwcControl(u.mesh, pde_grad_eval(problem, system, kind, parameter)(u.values)[0])


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
    nodes = mesh_nodes(mesh)
    centroids = nodes[mesh_triangles(mesh)].mean(axis=1)
    source = 2.0 * math.pi ** 2 * np.sin(np.pi * centroids[:, 0]) * np.sin(np.pi * centroids[:, 1])
    u = PwcControl(mesh, source)
    y = solve_spd(system, assemble_load_pwc(mesh, u))
    exact = np.sin(np.pi * nodes[:, 0]) * np.sin(np.pi * nodes[:, 1])
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


def clip_and_where_starting_pair(bounds, mesh, u_start):
    """The solver's starting pair built with fresh arrays: ``u_start`` (zero if
    absent) clipped to the box, and that moved up by ``delta``, or down where
    up leaves the box."""
    if u_start is None:
        u_start = PwcControl(mesh, np.zeros(mesh.num_triangles))
    u0 = clip_to_box(u_start, bounds)
    delta = 1e-2 * min(1.0, bounds.ub - bounds.ua)
    return u0, PwcControl(mesh, np.where(u0.values + delta <= bounds.ub, u0.values + delta, u0.values - delta))


def reference_bb(problem, grad_eval, u0: PwcControl, u_minus1: PwcControl, config, checks=None) -> SolveReport:
    """The projected BB loop of ``bb_projected_gradient``, one fresh array per operation.

    Same iterates, step rule, fallback and stopping test, written without
    any in-place update and forming the fixed-point residual in every pass,
    so the solver's buffer reuse and its residual skipping are checked
    against it.  ``checks``, if given, receives the ``(step_gap,
    fp_residual)`` pair of every stopping test.
    """
    bounds = problem.bounds
    area = u0.mesh.element_area
    u_prev, u = u_minus1.values, u0.values
    g_prev, _ = grad_eval(u_prev)
    g, objectives = grad_eval(u)

    fallbacks = 0
    iterations = 0
    step_gap = np.inf
    converged = False
    fp_residual = np.inf

    while iterations < config.max_iter:
        fixed_point = np.clip(u - g, bounds.ua, bounds.ub)
        fp_residual = np.sqrt(area * float(((u - fixed_point) ** 2).sum()))
        if checks is not None:
            checks.append((step_gap, fp_residual))
        if step_gap <= config.tol and fp_residual <= config.tol:
            converged = True
            break

        dg = g - g_prev
        du = u - u_prev
        dg_sq = area * float(dg @ dg)
        curvature = area * float(dg @ du)
        du_sq = area * float(du @ du)
        if dg_sq == 0.0 or curvature <= 1e-14 * np.sqrt(dg_sq * du_sq):
            step = 1.0
            fallbacks += 1
        else:
            step = curvature / dg_sq

        u_next = np.clip(u - step * g, bounds.ua, bounds.ub)
        gap = u_next - fixed_point
        step_gap = np.sqrt(area * float(gap @ gap))

        u_prev, g_prev = u, g
        u = u_next
        g, objectives = grad_eval(u)
        iterations += 1

    return SolveReport(
        control=PwcControl(u0.mesh, u),
        objectives=objectives,
        iterations=iterations,
        final_residual=float(fp_residual),
        converged=converged,
        fallback_steps=fallbacks,
    )

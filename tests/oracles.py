"""Independent reference computations the tests check the library against.

Everything here recomputes quantities through a different route than the
implementation: explicit node and triangle arrays, dense assembly from
basis-coefficient solves, numerical quadrature, finite differences,
brute-force searches, centroid tests, a fixed-step projected-gradient
optimizer, and the BB loop with one fresh array per operation, both on
explicit gradients and in the solver's adjoint form.
"""

from __future__ import annotations

import math

import numpy as np

from mopoisson.control import pi0_project
from mopoisson.fem import assemble_load_pwc, assemble_point_load, evaluate, solve_spd
from mopoisson.mesh import locate_point
from mopoisson.objective import ObjectivePair, solve_adjoints, solve_state
from mopoisson.scalarize import SolveReport

# 3-point interior Gauss rule on the triangle, exact for quadratics.
_GAUSS_BARY = np.array([
    [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
])


def l2_inner(u, v) -> float:
    """Exact L2 inner product ``sum_T |T| u_T v_T`` of two controls; ``|T|`` is one over their length."""
    return float(u @ v) / len(u)


def l2_norm(u) -> float:
    return math.sqrt(l2_inner(u, u))


def clip(u, bounds):
    """Per-triangle ``min(ub, max(ua, u))``."""
    return np.clip(u, bounds.ua, bounds.ub)


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


def gather_pi0(mesh, nodal) -> np.ndarray:
    """Element means by gathering each triangle's three nodal values."""
    return nodal[mesh_triangles(mesh)].mean(axis=1)


def gather_load_pwc(mesh, u) -> np.ndarray:
    """Interior load of a piecewise-constant source, scattered vertex by vertex."""
    full = np.zeros(mesh.num_nodes)
    np.add.at(full, mesh_triangles(mesh).ravel(), np.repeat(u * (mesh.element_area / 3.0), 3))
    return full[interior_mask(mesh)]


def gather_point_load(mesh, points, coeffs) -> np.ndarray:
    """Interior Dirac load, scattered to the vertices of the located triangles."""
    elements, bary = locate_point(mesh, points)
    full = np.zeros(mesh.num_nodes)
    np.add.at(full, mesh_triangles(mesh)[elements], bary * np.atleast_1d(coeffs)[:, None])
    return full[interior_mask(mesh)]


def gather_evaluate(mesh, nodal, points) -> np.ndarray:
    """Values at ``points`` from the nodal values of the located triangles' vertices."""
    elements, bary = locate_point(mesh, points)
    return (bary * nodal[mesh_triangles(mesh)[elements]]).sum(axis=1)


def gather_greens_means(problem, system) -> np.ndarray:
    """Element means of the Green's function of every observation point, by gathers."""
    mesh = system.mesh
    points = np.concatenate((problem.obs1, problem.obs2))
    return np.array([gather_pi0(mesh, solve_spd(system, gather_point_load(mesh, x, 1.0))) for x in points])


def wsm_semismooth_newton(problem, greens, area: float, alpha, tol: float = 1e-13, max_iter: int = 50):
    """Exact discrete WSM optimum from the ``n_obs``-unknown optimality system in the residuals.

    The minimizer of ``a1 j1 + a2 j2`` over the box is ``u(r) = clip(-G^T (a r)
    / Lam, ua, ub)``, where ``a`` repeats the weights over the two point sets,
    ``Lam = a1 lambda1 + a2 lambda2`` and the residuals solve ``F(r) = r - |T|
    G u(r) + y = 0``.  Semismooth Newton (Hintermueller, Ito & Kunisch, SIAM
    J. Optim. 13, 2002) on ``F`` uses the generalized Jacobian ``I + (|T| /
    Lam) G D G^T diag(a)``, with ``D`` selecting the elements where the clip
    is inactive; once ``D`` is right, ``F`` is affine and one step solves it.
    ``greens`` is the ``(n_obs, N)`` matrix of element means of the discrete
    Green's functions.  Returns the control values, the residuals, the final
    ``F`` and the step count.
    """
    a = np.repeat([float(alpha[0]), float(alpha[1])], [len(problem.y1), len(problem.y2)])
    lam = alpha[0] * problem.lambda1 + alpha[1] * problem.lambda2
    y = np.concatenate((problem.y1, problem.y2))
    ua, ub = problem.bounds.ua, problem.bounds.ub
    r = -y  # the residuals of the zero control
    for step in range(max_iter):
        z = -(greens.T @ (a * r)) / lam
        u = np.clip(z, ua, ub)
        F = r - area * (greens @ u) + y
        if np.abs(F).max() <= tol:
            return u, r, F, step
        free = greens[:, (z > ua) & (z < ub)]
        r = r - np.linalg.solve(np.eye(len(r)) + (area / lam) * (free @ free.T) * a, F)
    raise AssertionError("semismooth Newton did not converge")


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


def quadrature_load_pwc(mesh, u) -> np.ndarray:
    """Interior load of a piecewise-constant source via the 3-point rule."""
    full = np.zeros(mesh.num_nodes)
    weight = mesh.element_area / 3.0
    for t, tri in enumerate(mesh_triangles(mesh)):
        for bary in _GAUSS_BARY:
            full[tri] += u[t] * weight * bary
    return full[interior_mask(mesh)]


def quadrature_element_integral(mesh, nodal, t: int) -> float:
    """Integral of a P1 function over one triangle via physical-point quadrature."""
    points = _GAUSS_BARY @ mesh_nodes(mesh)[mesh_triangles(mesh)[t]]
    return float(evaluate(mesh, nodal, points).sum()) * mesh.element_area / 3.0


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


def pde_objectives(problem, system, u):
    """Objective pair and per-set adjoint means of ``u`` by a state solve and two adjoint solves."""
    (r1, m1), (r2, m2) = solve_adjoints(problem, system, solve_state(system, u))
    control_cost = l2_inner(u, u)
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


def scalarized_value(problem, system, u, kind: str, parameter) -> float:
    """Objective value of a scalarization, evaluated by the PDE route."""
    return scalarization(kind, parameter, pde_objectives(problem, system, u)[0])


def pde_grad_eval(problem, system, kind: str, parameter):
    """BB grad-eval of a scalarization through a state solve and two adjoint solves.

    Maps control values to the values of the gradient representer
    ``sum_k c_k (m_k + lambda_k u)``, like the solver's own evaluator,
    which takes it from the Green's function means.
    The coefficients ``c`` are the weights (``wsm``) or ``j - zeta`` (``rpm``).
    """

    def grad_eval(u: np.ndarray):
        j, (m1, m2) = pde_objectives(problem, system, u)
        c1, c2 = parameter if kind == "wsm" else (j.j1 - parameter[0], j.j2 - parameter[1])
        return c1 * (m1 + problem.lambda1 * u) + c2 * (m2 + problem.lambda2 * u)

    return grad_eval


def scalarized_gradient(problem, system, u, kind: str, parameter) -> np.ndarray:
    return pde_grad_eval(problem, system, kind, parameter)(u)


def central_difference(problem, system, u, w, kind: str, parameter, step: float = 1e-5) -> float:
    """Central finite difference of the scalarized objective along ``w``."""
    fp = scalarized_value(problem, system, u + step * w, kind, parameter)
    fm = scalarized_value(problem, system, u - step * w, kind, parameter)
    return (fp - fm) / (2.0 * step)


def wsm_hessian_apply(problem, system, alpha, w) -> np.ndarray:
    """Reduced Hessian of the weighted sum applied to a control direction."""
    mesh = system.mesh
    state_w = solve_state(system, w)
    c1 = evaluate(mesh, state_w, problem.obs1)
    c2 = evaluate(mesh, state_w, problem.obs2)
    q1 = solve_spd(system, assemble_point_load(mesh, problem.obs1, c1))
    q2 = solve_spd(system, assemble_point_load(mesh, problem.obs2, c2))
    values = alpha[0] * (pi0_project(mesh, q1) + problem.lambda1 * w)
    values += alpha[1] * (pi0_project(mesh, q2) + problem.lambda2 * w)
    return values


def power_iteration_bound(problem, system, alpha, iterations: int = 60) -> float:
    """Largest reduced-Hessian eigenvalue by power iteration."""
    w = np.ones(system.mesh.num_triangles)
    w /= l2_norm(w)
    bound = 0.0
    for _ in range(iterations):
        hw = wsm_hessian_apply(problem, system, alpha, w)
        bound = l2_inner(w, hw)
        w = hw / l2_norm(hw)
    return bound


def fixed_step_projected_gradient(problem, system, alpha, step: float,
                                  tol: float = 1e-10, max_iter: int = 100000) -> np.ndarray:
    """Plain projected gradient with a constant step; slow but reliable."""
    u = clip(np.zeros(system.mesh.num_triangles), problem.bounds)
    for _ in range(max_iter):
        g = scalarized_gradient(problem, system, u, "wsm", alpha)
        if l2_norm(u - clip(u - g, problem.bounds)) <= tol:
            return u
        u = clip(u - step * g, problem.bounds)
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


# The two generators of the mesh family's symmetries, as maps of (n, 2) point arrays.
MESH_SYMMETRIES = {
    "transpose": lambda points: points[:, ::-1],
    "point-reflect": lambda points: 1.0 - points,
}


def symmetry_triangle_permutation(mesh, mirror) -> np.ndarray:
    """``perm[t]``: the triangle that ``mirror`` maps triangle ``t`` onto, matched by centroids.

    Centroids lie on the grid of thirds of a cell, so they are matched as integers.
    """
    centroids = mesh_nodes(mesh)[mesh_triangles(mesh)].mean(axis=1)
    thirds = 3 * mesh.cells_per_side

    def keys(points):
        k = np.rint(thirds * points).astype(np.int64)
        return k[:, 0] * (thirds + 1) + k[:, 1]

    index = np.full((thirds + 1) ** 2, -1)
    index[keys(centroids)] = np.arange(mesh.num_triangles)
    return index[keys(mirror(centroids))]


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
    y = solve_spd(system, assemble_load_pwc(mesh, source))
    exact = np.sin(np.pi * nodes[:, 0]) * np.sin(np.pi * nodes[:, 1])
    return float(np.abs(y - exact).max())


def vi_min_slack(problem, u_bar, gradient, rng, samples: int = 100) -> float:
    """Worst sampled value of (gradient, u - u_bar) over random feasible u."""
    worst = np.inf
    for _ in range(samples):
        u = rng.uniform(problem.bounds.ua, problem.bounds.ub, len(u_bar))
        worst = min(worst, l2_inner(gradient, u - u_bar))
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
    up leaves the box; ``delta`` is at least four float spacings of the bounds."""
    u0 = clip(np.zeros(mesh.num_triangles) if u_start is None else u_start, bounds)
    delta = max(1e-2 * min(1.0, bounds.ub - bounds.ua), 4 * np.spacing(max(abs(bounds.ua), abs(bounds.ub))))
    return u0, np.where(u0 + delta <= bounds.ub, u0 + delta, u0 - delta)


def reference_bb(bounds, grad_eval, u0, u_minus1, config, checks=None) -> SolveReport:
    """The projected BB loop on explicit gradients, one fresh array per operation.

    Same iterates as ``bb_projected_gradient`` up to rounding, with the same
    step rule, fallback and stopping test, but it forms ``g``, ``dg`` and
    ``du`` as arrays and takes the BB quotient from their dot products, so
    the solver's adjoint-form quotient is checked against it.  It forms the
    fixed-point residual in every pass, without any in-place update, and
    runs from the explicit pair ``u0``, ``u_minus1``, such as that of
    :func:`clip_and_where_starting_pair`.  ``checks``, if given, receives
    the ``(step_gap, fp_residual)`` pair of every stopping test.
    """
    area = 1.0 / len(u0)
    u_prev, u = u_minus1, u0
    g_prev = grad_eval(u_prev)
    g = grad_eval(u)

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
        g = grad_eval(u)
        iterations += 1

    return SolveReport(
        control=u,
        objectives=None,
        iterations=iterations,
        final_residual=float(fp_residual),
        converged=converged,
        fallback_steps=fallbacks,
    )


def oracle_coefficients(problem, area: float, kind: str, parameter):
    """The solver's coefficient rule ``(G u, u.u) -> (w, lam)``, written out again.

    ``w = c r`` with the residuals ``r = |T| G u - y`` and ``lam = c1
    lambda1 + c2 lambda2``, where ``c`` repeats ``(c1, c2)`` over the two
    point sets: the weights (``wsm``) or ``j - zeta`` (``rpm``), with ``j_k
    = |r_k|^2 / 2 + lambda_k |T| u.u / 2``.
    """
    n1 = len(problem.y1)
    y = np.concatenate((problem.y1, problem.y2))
    sets = np.repeat([0, 1], [n1, len(problem.y2)])

    def rule(Gu, uu):
        r = area * Gu - y
        if kind == "wsm":
            c1, c2 = parameter
        else:
            un2 = area * uu
            c1 = 0.5 * np.dot(r[:n1], r[:n1]) + 0.5 * problem.lambda1 * un2 - parameter[0]
            c2 = 0.5 * np.dot(r[n1:], r[n1:]) + 0.5 * problem.lambda2 * un2 - parameter[1]
        return np.array([c1, c2])[sets] * r, c1 * problem.lambda1 + c2 * problem.lambda2

    return rule


def rule_gradient(greens, rule):
    """The explicit gradient ``u -> G^T w + lam u`` of a coefficient rule, for :func:`reference_bb`."""

    def grad_eval(u):
        w, lam = rule(np.dot(greens, u), np.dot(u, u))
        return np.dot(w, greens) + lam * u

    return grad_eval


def reference_adjoint_bb(bounds, greens, rule, u0, u_minus1, config, checks=None) -> SolveReport:
    """The solver's adjoint-form BB loop, one fresh array per operation.

    The gradient ``G^T w + lam u`` of the rule ``(G u, u.u) -> (w, lam)`` is
    never formed: the iterates are ``clip((1 - s lam) u - s v)`` with ``v =
    G^T w``, and the BB quotient comes from ``du = u - u_prev`` and the
    ``n_obs`` quantities ``G du``, ``dw`` and ``dlam`` through the Gram
    matrix ``G G^T``, term for term as the solver sums them.  Every
    operation allocates its result, ``u.u`` is formed at every iterate and
    the fixed-point residual in every pass, so the solver's buffer reuse,
    its skipped ``u.u`` for fixed weights and its residual skipping are
    checked bit for bit.  It runs from the explicit pair ``u0``,
    ``u_minus1``; ``checks`` is as in :func:`reference_bb`.
    """
    area = 1.0 / len(u0)
    gram = np.array([np.dot(greens, row) for row in greens])
    u_prev, u = u_minus1, u0
    Gu_prev, uu_prev = np.dot(greens, u_prev), np.dot(u_prev, u_prev)
    w_prev, lam_prev = rule(Gu_prev, uu_prev)
    Gu, uu = np.dot(greens, u), np.dot(u, u)
    w, lam = rule(Gu, uu)
    v = np.dot(w, greens)

    fallbacks = 0
    iterations = 0
    step_gap = np.inf
    converged = False
    fp_residual = np.inf

    while iterations < config.max_iter:
        fixed_point = np.clip((1.0 - lam) * u - v, bounds.ua, bounds.ub)
        residual = u - fixed_point
        fp_residual = np.sqrt(area * np.dot(residual, residual))
        if checks is not None:
            checks.append((step_gap, fp_residual))
        if step_gap <= config.tol and fp_residual <= config.tol:
            converged = True
            break

        du = u - u_prev
        du_sq = np.dot(du, du)
        dw = w - w_prev
        dlam = lam - lam_prev
        dw_Gdu = np.dot(dw, Gu - Gu_prev)
        curvature = dw_Gdu + lam * du_sq
        dg_sq = np.dot(dw, np.dot(gram, dw)) + 2.0 * lam * dw_Gdu + lam * lam * du_sq
        if dlam != 0.0:
            du_up = np.dot(du, u_prev)
            curvature = curvature + dlam * du_up
            dg_sq = dg_sq + (2.0 * dlam * (np.dot(dw, Gu_prev) + lam * du_up) + dlam * dlam * uu_prev)
        if dg_sq <= 0.0 or curvature <= 1e-14 * np.sqrt(dg_sq * du_sq):
            step = 1.0
            fallbacks += 1
        else:
            step = curvature / dg_sq

        u_next = np.clip((1.0 - step * lam) * u - step * v, bounds.ua, bounds.ub)
        gap = u_next - fixed_point
        step_gap = np.sqrt(area * np.dot(gap, gap))

        u_prev, Gu_prev, uu_prev, w_prev, lam_prev = u, Gu, uu, w, lam
        u = u_next
        Gu, uu = np.dot(greens, u), np.dot(u, u)
        w, lam = rule(Gu, uu)
        v = np.dot(w, greens)
        iterations += 1

    return SolveReport(
        control=u,
        objectives=None,
        iterations=iterations,
        final_residual=float(fp_residual),
        converged=converged,
        fallback_steps=fallbacks,
    )

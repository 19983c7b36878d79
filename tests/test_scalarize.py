import numpy as np
import pytest

from mopoisson import (
    BBConfig,
    ProblemData,
    PwcControl,
    assemble_stiffness,
    bb_projected_gradient,
    build_uniform_mesh,
    clip_to_box,
    ideal_vector,
    l2_error,
    l2_norm,
    next_reference_point,
    rpm_front,
    solve_rpm,
    solve_wsm,
    wsm_front,
)
from mopoisson.objective import (
    ObjectivePair,
    eval_objectives,
    grad_rpm,
    grad_wsm,
    greens_function_means,
    reduced_bundle,
    rpm_value,
    wsm_value,
)
from oracles import (
    fixed_step_projected_gradient,
    mutually_nondominated,
    pareto_ordered,
    pde_grad_eval,
    power_iteration_bound,
    reflect_problem,
    reflect_triangle_permutation,
    scalarized_gradient,
    scalarized_value,
    vi_min_slack,
)


@pytest.fixture(scope="module")
def level3(bench):
    mesh = build_uniform_mesh(3)
    return bench, mesh, assemble_stiffness(mesh).factorize()


def matched_problem(problem, mesh, system):
    """Same geometry, but the desired values are attained by u = 0."""
    zero_state_vals = [0.0 for _ in problem.obs1]
    return ProblemData(
        obs1=problem.obs1, y1=zero_state_vals,
        obs2=problem.obs2, y2=[0.0 for _ in problem.obs2],
        lambda1=problem.lambda1, lambda2=problem.lambda2, bounds=problem.bounds,
    )


def test_bbconfig_validation():
    with pytest.raises(ValueError):
        BBConfig(tol=-1.0)
    with pytest.raises(ValueError):
        BBConfig(tol=1e-13)  # must stay above the linear tolerance
    with pytest.raises(ValueError):
        BBConfig(max_iter=0)
    with pytest.raises(ValueError):
        BBConfig(tol=np.nan)
    with pytest.raises(ValueError):
        BBConfig(tol=np.inf)


def test_immediate_convergence_at_stationary_start(level3):
    problem, mesh, system = level3
    quad = matched_problem(problem, mesh, system)
    report = solve_wsm(quad, system, (0.5, 0.5))
    assert report.converged
    assert report.iterations == 1
    assert np.abs(report.control.values).max() <= 1e-12


def test_quadratic_surrogate_converges_in_three_iterations(level3):
    # pure 0.5*lambda*|u|^2 objective: the BB quotient is exact after warmup
    problem, mesh, system = level3
    lam = 0.1

    def grad(u):
        return PwcControl(mesh, lam * u.values), ObjectivePair(0.0, 0.0)

    u0 = PwcControl(mesh, np.full(mesh.num_triangles, 5.0))
    u_minus1 = PwcControl(mesh, np.full(mesh.num_triangles, 5.01))
    report = bb_projected_gradient(problem, grad, u0, u_minus1, BBConfig())
    assert report.converged
    assert report.iterations <= 3
    assert np.abs(report.control.values).max() <= 1e-10


def test_bb_matches_fixed_step_projected_gradient(level3):
    problem, mesh, system = level3
    alpha = (0.5, 0.5)
    report = solve_wsm(problem, system, alpha)
    bound = power_iteration_bound(problem, system, alpha)
    oracle = fixed_step_projected_gradient(problem, system, alpha, step=1.0 / bound, tol=1e-10)
    assert report.converged
    assert l2_error(report.control, oracle) <= 1e-6


def test_converged_reports_satisfy_fixed_point_and_vi(level3, rng):
    problem, mesh, system = level3
    wsm_report = solve_wsm(problem, system, (0.3, 0.7))
    rpm_report = solve_rpm(problem, system, (16.5, 1.5))
    for report, kind, parameter in [
        (wsm_report, "wsm", (0.3, 0.7)),
        (rpm_report, "rpm", (16.5, 1.5)),
    ]:
        assert report.converged
        u = report.control
        g = scalarized_gradient(problem, system, u, kind, parameter)
        fixed_point = clip_to_box(PwcControl(mesh, u.values - g.values), problem.bounds)
        assert l2_norm(PwcControl(mesh, u.values - fixed_point.values)) <= 1e-8
        assert vi_min_slack(problem, u, g, rng, samples=100) >= -1e-6


def test_scalarized_objective_decreases_from_start(bench, system_for):
    problem = bench
    mesh, system = system_for(4)
    u0 = clip_to_box(PwcControl(mesh, np.zeros(mesh.num_triangles)), problem.bounds)
    alpha = (0.5, 0.5)
    report = solve_wsm(problem, system, alpha)
    assert wsm_value(alpha, report.objectives) <= scalarized_value(problem, system, u0, "wsm", alpha)
    zeta = (16.0, 1.0)
    rpm_report = solve_rpm(problem, system, zeta)
    assert rpm_value(zeta, rpm_report.objectives) <= scalarized_value(problem, system, u0, "rpm", zeta)


def test_solution_reflects_with_the_problem(level3):
    problem, mesh, system = level3
    base = solve_wsm(problem, system, (0.5, 0.5))
    reflected = solve_wsm(reflect_problem(problem), system, (0.5, 0.5))
    perm = reflect_triangle_permutation(mesh)
    mirrored = reflected.control.values[perm]
    assert l2_norm(PwcControl(mesh, base.control.values - mirrored)) <= 1e-8


def test_reports_are_bit_identical_across_runs(bench):
    mesh = build_uniform_mesh(3)
    system = assemble_stiffness(mesh)
    a = solve_wsm(bench, system, (0.4, 0.6))
    b = solve_wsm(bench, system, (0.4, 0.6))
    assert np.array_equal(a.control.values, b.control.values)
    assert a.objectives == b.objectives
    assert (a.iterations, a.fallback_steps) == (b.iterations, b.fallback_steps)


def test_solver_requires_distinct_feasible_starts(level3):
    problem, mesh, system = level3
    u = clip_to_box(PwcControl(mesh, np.zeros(mesh.num_triangles)), problem.bounds)
    grad = lambda v: (v, ObjectivePair(0.0, 0.0))
    with pytest.raises(ValueError):
        bb_projected_gradient(problem, grad, u, u, BBConfig())
    outside = PwcControl(mesh, np.full(mesh.num_triangles, 100.0))
    with pytest.raises(ValueError):
        bb_projected_gradient(problem, grad, outside, u, BBConfig())


def test_max_iter_returns_unconverged_report(level3):
    problem, mesh, system = level3
    report = solve_wsm(problem, system, (0.5, 0.5), BBConfig(max_iter=2))
    assert not report.converged
    assert report.iterations == 2


def test_constant_gradient_triggers_fallback(level3):
    # linear objective: Delta g = 0 forces the fallback step every pass
    problem, mesh, system = level3
    ones = PwcControl(mesh, np.ones(mesh.num_triangles))

    def grad(u):
        return ones, ObjectivePair(0.0, 0.0)

    u0 = clip_to_box(PwcControl(mesh, np.zeros(mesh.num_triangles)), problem.bounds)
    u_minus1 = PwcControl(mesh, np.full(mesh.num_triangles, 0.01))
    report = bb_projected_gradient(problem, grad, u0, u_minus1, BBConfig(max_iter=50))
    assert report.fallback_steps >= 1
    assert report.converged
    assert np.all(report.control.values == problem.bounds.ua)


def test_solve_counts_are_audited(bench, level3, system_for, solve_calls):
    system = level3[2]
    problem = _off_node_problem(bench.bounds)
    full = len(problem.obs1) + len(problem.obs2)
    # the first solve at a level: one Green's function per observation point, no solve per BB pass
    report = solve_wsm(problem, system, (0.5, 0.5), BBConfig(max_iter=2))
    assert report.solve_count == full == len(solve_calls)
    # the problem keeps the level's means
    solve_calls.clear()
    report = solve_wsm(problem, system, (0.5, 0.5))
    assert report.solve_count == 0 == len(solve_calls)
    assert report.iterations > 2
    # another level needs its own
    report = solve_wsm(problem, system_for(2)[1], (0.5, 0.5))
    assert report.solve_count == full == len(solve_calls)


def test_sweeps_share_one_greens_precompute(bench, level3, solve_calls):
    _, mesh, system = level3
    problem = ProblemData(
        obs1=[(0.75, 0.25), (0.6, 0.4)], y1=[6.0, 3.0],
        obs2=[(0.25, 0.75)], y2=[-2.0],
        lambda1=0.1, lambda2=0.1, bounds=bench.bounds,
    )
    # one solve per observation point for the problem at this level
    wsm = wsm_front(problem, system, 4)
    assert len(solve_calls) == 3 == sum(e.report.solve_count for e in wsm.entries)
    rpm = rpm_front(problem, system, 6, 0.2, 0.2)
    assert len(rpm.entries) > 3
    ideal_vector(problem, system)
    assert len(solve_calls) == 3
    # every entry is the standalone solve from the same warm start
    warm_starts = [None] + [e.report.control for e in wsm.entries[:-1]]
    warm_starts += [None] + [e.report.control for e in rpm.entries[:-2]] + [None]
    for entry, warm in zip(wsm.entries + rpm.entries, warm_starts):
        solve = solve_wsm if entry.method == "wsm" else solve_rpm
        standalone = solve(problem, system, entry.parameter, u_start=warm)
        assert standalone.solve_count == 0
        assert entry.report.objectives == standalone.objectives
        assert (entry.report.iterations, entry.report.fallback_steps) == (
            standalone.iterations, standalone.fallback_steps
        )


def _off_node_problem(bounds):
    # a grid node (0.5, 0.5), a point on the cell diagonal y = x, and off-grid points
    return ProblemData(
        obs1=[(0.5, 0.5), (0.3, 0.3), (0.61, 0.27)], y1=[3.0, -1.0, 2.0],
        obs2=[(0.25, 0.75), (0.7, 0.45)], y2=[1.0, -0.5],
        lambda1=0.1, lambda2=0.05, bounds=bounds,
    )


@pytest.mark.parametrize("level", [0, 1, 3, 5])
def test_reduced_route_matches_pde_route(bench, system_for, rng, level):
    problem = _off_node_problem(bench.bounds)
    mesh, system = system_for(level)
    means = greens_function_means(problem, system)
    for kind, parameter in [("wsm", (0.3, 0.7)), ("rpm", (0.0, 0.0))]:
        pde = pde_grad_eval(problem, system, kind, parameter)
        for _ in range(3):
            u = PwcControl(mesh, rng.uniform(problem.bounds.ua, problem.bounds.ub, mesh.num_triangles))
            g_pde, j_pde = pde(u)
            bundle = reduced_bundle(problem, means, u)
            j = eval_objectives(problem, u, bundle)
            if kind == "wsm":
                g = grad_wsm(problem, bundle, u, parameter)
            else:
                g = grad_rpm(problem, bundle, u, parameter, j)
            assert j.as_array() == pytest.approx(j_pde.as_array(), rel=1e-12, abs=0)
            assert np.abs(g.values - g_pde.values).max() <= 1e-12 * np.abs(g_pde.values).max()
        # the solver's BB run against BB on the PDE route from the solver's starts
        solve = solve_wsm if kind == "wsm" else solve_rpm
        report = solve(problem, system, parameter)
        u0 = PwcControl(mesh, np.zeros(mesh.num_triangles))
        oracle = bb_projected_gradient(problem, pde, u0, PwcControl(mesh, u0.values + 1e-2), BBConfig())
        assert report.converged and oracle.converged
        assert (report.iterations, report.fallback_steps) == (oracle.iterations, oracle.fallback_steps)
        assert report.objectives.as_array() == pytest.approx(oracle.objectives.as_array(), rel=1e-12, abs=0)


def test_wsm_converges_on_mesh_without_unknowns(bench):
    mesh = build_uniform_mesh(0)
    report = solve_wsm(bench, assemble_stiffness(mesh), (0.5, 0.5))
    assert report.converged
    assert report.objectives == ObjectivePair(18.0, 2.0)
    assert np.all(report.control.values == 0.0)


def test_wsm_front_endpoints():
    from mopoisson import benchmark_problem

    problem = benchmark_problem(1.0, 1.0)
    mesh = build_uniform_mesh(2)
    system = assemble_stiffness(mesh)
    eps = 1e-3
    front = wsm_front(problem, system, 2, eps=eps)
    alphas = front.parameters()
    assert alphas[0][1] == pytest.approx(eps)
    assert alphas[1][1] == pytest.approx(1.0 - eps)


def test_wsm_front_is_pareto_ordered(bench):
    mesh = build_uniform_mesh(4)
    system = assemble_stiffness(mesh)
    front = wsm_front(bench, system, 11)
    assert all(e.report.converged for e in front.entries)
    objectives = front.objective_array()
    assert pareto_ordered(objectives)
    assert mutually_nondominated(objectives)


def test_wsm_front_cold_start_matches_standalone(bench):
    mesh = build_uniform_mesh(3)
    system = assemble_stiffness(mesh)
    front = wsm_front(bench, system, 3, cold_start=True)
    middle = front.entries[1]
    assert middle.parameter[1] == pytest.approx(0.5)
    standalone = solve_wsm(bench, system, middle.parameter)
    assert np.array_equal(middle.report.control.values, standalone.control.values)
    assert middle.report.objectives == standalone.objectives


def test_wsm_front_validation(level3):
    problem, mesh, system = level3
    with pytest.raises(ValueError):
        wsm_front(problem, system, 1)
    with pytest.raises(ValueError):
        wsm_front(problem, system, 5, eps=0.7)


def test_next_reference_point_unit_arithmetic():
    j = np.array([4.0, 9.0])
    out = next_reference_point(j - np.array([1.0, 0.0]), j, 0.2, 0.2)
    assert np.allclose(out, j + np.array([-0.2, -0.2]), atol=1e-15)


def test_next_reference_point_scale_invariance():
    j = np.array([2.0, 1.0])
    direction = np.array([-0.3, -0.4])
    near = next_reference_point(j + direction, j, 0.15, 0.25)
    far = next_reference_point(j + 2.0 * direction, j, 0.15, 0.25)
    assert np.allclose(near, far, atol=1e-14)


def test_next_reference_point_zero_offsets_and_degenerate():
    j = np.array([1.0, 2.0])
    assert np.allclose(next_reference_point(j + np.array([-1.0, 0.0]), j, 0.0, 0.0), j)
    with pytest.raises(ValueError):
        next_reference_point(j, j, 0.1, 0.1)


def test_rpm_front_two_point_cap(bench):
    mesh = build_uniform_mesh(3)
    system = assemble_stiffness(mesh)
    front = rpm_front(bench, system, 2, 0.2, 0.2)
    # cap l_max-1 = 1 allows exactly one interior reference-point solve here
    assert len(front.entries) == 3
    assert front.entries[0].method == "wsm" and front.entries[-1].method == "wsm"
    assert front.entries[1].method == "rpm"
    again = rpm_front(bench, system, 2, 0.2, 0.2)
    assert np.array_equal(front.objective_array(), again.objective_array())


def test_rpm_front_entries_dominate_their_reference(bench):
    mesh = build_uniform_mesh(4)
    system = assemble_stiffness(mesh)
    front = rpm_front(bench, system, 8, 0.2, 0.2)
    assert not front.meta["aborted"]
    for entry in front.entries:
        if entry.method != "rpm" or not entry.report.converged:
            continue
        j = entry.report.objectives
        assert j.j1 >= entry.parameter[0] - 1e-8
        assert j.j2 >= entry.parameter[1] - 1e-8
        assert entry.report.meta["zeta_dominated"]
    assert mutually_nondominated(front.objective_array())


def test_rpm_front_validation(level3):
    problem, mesh, system = level3
    with pytest.raises(ValueError):
        rpm_front(problem, system, 1, 0.2, 0.2)
    for h_perp, h_par in [(-0.1, 0.2), (np.nan, 0.2), (0.2, np.nan), (np.inf, 0.2)]:
        with pytest.raises(ValueError):
            rpm_front(problem, system, 5, h_perp, h_par)
    for zeta in [(np.nan, 1.0), (16.0, np.inf)]:
        with pytest.raises(ValueError):
            solve_rpm(problem, system, zeta)
    for eps in [0.0, 0.5, 0.7, np.nan]:
        with pytest.raises(ValueError):
            rpm_front(problem, system, 5, 0.2, 0.2, eps=eps)


def test_ideal_vector_properties(bench):
    mesh = build_uniform_mesh(4)
    system = assemble_stiffness(mesh)
    ideal = ideal_vector(bench, system)
    assert np.all(ideal >= 0.0)
    coarse_eps = ideal_vector(bench, system, eps=1e-4)
    assert np.all(np.abs(coarse_eps - ideal) <= 1e-2 * np.abs(ideal))
    for eps in [0.0, 0.5, 0.7, np.nan]:
        with pytest.raises(ValueError):
            ideal_vector(bench, system, eps=eps)
    front = wsm_front(bench, system, 7)
    objectives = front.objective_array()
    assert np.all(ideal[0] <= objectives[:, 0] + 1e-6)
    assert np.all(ideal[1] <= objectives[:, 1] + 1e-6)


def test_zeta_validity_flag_records_overshoot(bench):
    mesh = build_uniform_mesh(3)
    system = assemble_stiffness(mesh)
    # reference point far above the attainable front: j - zeta goes negative
    report = solve_rpm(bench, system, (100.0, 100.0))
    assert not report.meta["zeta_dominated"]


def test_control_saturates_near_observation_points(bench, system_for):
    # strong weight on the second criterion clamps the control at the lower
    # bound around its observation point
    mesh, system = system_for(6)
    report = solve_wsm(bench, system, (0.2, 0.8))
    values = report.control.values
    centroids = mesh.nodes[mesh.triangles].mean(axis=1)
    clamped_low = centroids[values <= bench.bounds.ua + 1e-9]
    assert len(clamped_low) > 0
    assert np.linalg.norm(clamped_low - bench.obs2[0], axis=1).max() <= 0.1
    assert np.linalg.norm(centroids[values.argmax()] - bench.obs1[0]) <= 0.1
    assert np.linalg.norm(centroids[values.argmin()] - bench.obs2[0]) <= 0.1


def test_rpm_started_at_wsm_solution_with_its_objectives(bench, system_for):
    mesh, system = system_for(3)
    wsm_report = solve_wsm(bench, system, (0.6, 0.4))
    zeta = (wsm_report.objectives.j1, wsm_report.objectives.j2)
    report = solve_rpm(bench, system, zeta, u_start=wsm_report.control)
    assert report.converged
    assert report.iterations == 1
    assert l2_error(report.control, wsm_report.control) <= 1e-10


def test_rpm_zeta2_converges_and_dominates(bench, system_for):
    mesh, system = system_for(6)
    zeta = (16.89, 2.58)
    report = solve_rpm(bench, system, zeta)
    assert report.converged
    assert report.objectives.j1 > zeta[0] and report.objectives.j2 > zeta[1]
    assert report.meta["zeta_dominated"]

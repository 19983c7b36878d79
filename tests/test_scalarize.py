import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopoisson import (
    BBConfig,
    BoxBounds,
    ProblemData,
    SolverError,
    assemble_stiffness,
    bb_projected_gradient,
    benchmark_problem,
    build_uniform_mesh,
    ideal_vector,
    l2_error,
    next_reference_point,
    rpm_front,
    solve_rpm,
    solve_wsm,
    wsm_front,
)
from mopoisson.objective import ObjectivePair, eval_objectives, grad_rpm, grad_wsm, greens_function_means
from oracles import (
    MESH_SYMMETRIES,
    clip,
    clip_and_where_starting_pair,
    fixed_step_projected_gradient,
    gather_greens_means,
    l2_norm,
    mesh_nodes,
    mesh_triangles,
    mutually_nondominated,
    pareto_ordered,
    pde_grad_eval,
    power_iteration_bound,
    reflect_problem,
    reference_bb,
    reflect_triangle_permutation,
    scalarization,
    scalarized_gradient,
    scalarized_value,
    symmetry_triangle_permutation,
    vi_min_slack,
    wsm_semismooth_newton,
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
    assert np.abs(report.control).max() <= 1e-12


def test_quadratic_surrogate_converges_in_three_iterations(level3):
    # pure 0.5*lambda*|u|^2 objective: the BB quotient is exact after warmup
    problem, mesh, system = level3
    lam = 0.1

    def grad(u):
        return lam * u, ObjectivePair(0.0, 0.0)

    u0 = np.full(mesh.num_triangles, 5.0)
    u_minus1 = np.full(mesh.num_triangles, 5.01)
    report = bb_projected_gradient(problem, grad, u0, u_minus1, BBConfig())
    assert report.converged
    assert report.iterations <= 3
    assert np.abs(report.control).max() <= 1e-10


def test_bb_matches_fixed_step_projected_gradient(level3):
    problem, mesh, system = level3
    alpha = (0.5, 0.5)
    report = solve_wsm(problem, system, alpha)
    bound = power_iteration_bound(problem, system, alpha)
    oracle = fixed_step_projected_gradient(problem, system, alpha, step=1.0 / bound, tol=1e-10)
    assert report.converged
    assert l2_error(report.control, oracle) <= 1e-6


@pytest.mark.parametrize("lambdas", [(0.1, 0.1), (1.0, 1.0)])
@pytest.mark.parametrize("level", [3, 5, 6])
def test_wsm_matches_the_semismooth_newton_optimum(level, lambdas, system_for):
    """The exact discrete optimum, from Newton on the n_obs residuals, against BB at tol 1e-10."""
    problem = benchmark_problem(*lambdas)
    mesh, system = system_for(level)
    area = mesh.element_area
    greens = gather_greens_means(problem, system)
    for alpha in [(0.2, 0.8), (0.5, 0.5), (0.8, 0.2)]:
        u, r, F, _ = wsm_semismooth_newton(problem, greens, area, alpha)
        assert np.abs(F).max() <= 1e-13
        report = solve_wsm(problem, system, alpha, BBConfig(tol=1e-10))
        assert report.converged
        assert l2_norm(report.control - u) <= 1e-9
        n1 = len(problem.y1)
        exact = [0.5 * float(rk @ rk) + 0.5 * lam * area * float(u @ u)
                 for rk, lam in ((r[:n1], problem.lambda1), (r[n1:], problem.lambda2))]
        assert np.allclose(report.objectives.as_array(), exact, rtol=1e-10, atol=0)


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
        fixed_point = clip(u - g, problem.bounds)
        assert l2_norm(u - fixed_point) <= 1e-8
        assert vi_min_slack(problem, u, g, rng, samples=100) >= -1e-6


def test_scalarized_objective_decreases_from_start(bench, system_for):
    problem = bench
    mesh, system = system_for(4)
    u0 = clip(np.zeros(mesh.num_triangles), problem.bounds)
    alpha = (0.5, 0.5)
    report = solve_wsm(problem, system, alpha)
    assert scalarization("wsm", alpha, report.objectives) <= scalarized_value(problem, system, u0, "wsm", alpha)
    zeta = (16.0, 1.0)
    rpm_report = solve_rpm(problem, system, zeta)
    assert scalarization("rpm", zeta, rpm_report.objectives) <= scalarized_value(problem, system, u0, "rpm", zeta)


def test_solution_reflects_with_the_problem(bench, system_for):
    """Both evaluation paths at L3 and L5: a WSM solve, an RPM solve and a warm-started WSM front.

    With the criteria swapped as well (lambda1 = lambda2 here), the mirrored
    WSM front is the reversed front with ``j`` swapped: to rounding when cold,
    to the solver tolerance when each sweep warm-starts in its own order.
    """
    assert bench.lambda1 == bench.lambda2
    reflected_problem = reflect_problem(bench)
    for level in (3, 5):
        mesh, system = system_for(level)
        perm = reflect_triangle_permutation(mesh)
        cases = [
            lambda p: [solve_wsm(p, system, (0.5, 0.5))],
            lambda p: [solve_rpm(p, system, (16.5, 1.5))],
            lambda p: [e.report for e in wsm_front(p, system, 6).entries],
        ]
        for case in cases:
            for base, reflected in zip(case(bench), case(reflected_problem), strict=True):
                mirrored = reflected.control[perm]
                assert l2_norm(base.control - mirrored) <= 1e-8
                assert np.allclose(base.objectives.as_array(), reflected.objectives.as_array(), rtol=1e-10, atol=0)
        for cold_start, u_tol, j_tol in [(True, 1e-12, 1e-12), (False, 1e-8, 1e-10)]:
            front = wsm_front(bench, system, 8, cold_start=cold_start).entries
            for mirror in MESH_SYMMETRIES.values():
                swapped = ProblemData(obs1=mirror(bench.obs2), y1=bench.y2, obs2=mirror(bench.obs1), y2=bench.y1,
                                      lambda1=bench.lambda1, lambda2=bench.lambda2, bounds=bench.bounds)
                mirrored = wsm_front(swapped, system, 8, cold_start=cold_start).entries[::-1]
                perm = symmetry_triangle_permutation(mesh, mirror)
                for entry, other in zip(front, mirrored, strict=True):
                    assert np.allclose(other.parameter[::-1], entry.parameter, rtol=0, atol=1e-15)
                    assert l2_norm(other.report.control[perm] - entry.report.control) <= u_tol
                    assert np.allclose(other.report.objectives.as_array()[::-1], entry.report.objectives.as_array(),
                                       rtol=j_tol, atol=0)


@settings(deadline=None, max_examples=15, derandomize=True)
@given(
    level=st.integers(1, 5),
    points=st.lists(st.tuples(st.integers(1, 2 ** 12 - 1), st.integers(1, 2 ** 12 - 1)), min_size=2, max_size=3),
    desired=st.lists(st.floats(-8.0, 8.0), min_size=3, max_size=3),
    lam=st.floats(0.05, 2.0),
    a2=st.floats(0.05, 0.95),
    symmetry=st.sampled_from(sorted(MESH_SYMMETRIES)),
)
def test_mirrored_data_with_swapped_weights_give_the_mirrored_wsm_solution(
    system_for, level, points, desired, lam, a2, symmetry
):
    """With lambda1 = lambda2, swapping the criteria undoes the weight swap: u and j just mirror."""
    mirror = MESH_SYMMETRIES[symmetry]
    mesh, system = system_for(level)
    points = np.array(points) / 2 ** 12  # dyadic, so the mirror map is exact
    obs1, obs2 = points[:1], points[1:]
    y1, y2 = desired[:1], desired[1:len(points)]

    def solve(obs1, y1, obs2, y2, alpha):
        problem = ProblemData(obs1=obs1, y1=y1, obs2=obs2, y2=y2, lambda1=lam, lambda2=lam,
                              bounds=BoxBounds(-7.0, 15.0))
        return solve_wsm(problem, system, alpha)

    base = solve(obs1, y1, obs2, y2, (1.0 - a2, a2))
    swapped = solve(mirror(obs2), y2, mirror(obs1), y1, (a2, 1.0 - a2))
    perm = symmetry_triangle_permutation(mesh, mirror)
    assert np.abs(swapped.control[perm] - base.control).max() <= 1e-12
    assert np.allclose(swapped.objectives.as_array()[::-1], base.objectives.as_array(), rtol=1e-12, atol=0)
    assert swapped.iterations == base.iterations


def test_reports_are_bit_identical_across_runs(bench):
    mesh = build_uniform_mesh(3)
    system = assemble_stiffness(mesh)
    a = solve_wsm(bench, system, (0.4, 0.6))
    b = solve_wsm(bench, system, (0.4, 0.6))
    assert np.array_equal(a.control, b.control)
    assert a.objectives == b.objectives
    assert (a.iterations, a.fallback_steps) == (b.iterations, b.fallback_steps)


def test_solver_requires_distinct_feasible_starts(level3):
    problem, mesh, system = level3
    u = clip(np.zeros(mesh.num_triangles), problem.bounds)
    grad = lambda v: (v, ObjectivePair(0.0, 0.0))
    with pytest.raises(ValueError):
        bb_projected_gradient(problem, grad, u, u, BBConfig())
    outside = np.full(mesh.num_triangles, 100.0)
    with pytest.raises(ValueError):
        bb_projected_gradient(problem, grad, outside, u, BBConfig())


def test_warm_start_from_another_level_is_rejected(level3):
    problem, mesh, system = level3
    for start in (np.zeros(2 * 4 ** 2), np.zeros(2 * 4 ** 4), np.zeros((mesh.num_triangles, 1)), [0.0] * 8):
        for solve, parameter in [(solve_wsm, (0.5, 0.5)), (solve_rpm, (16.5, 1.5))]:
            with pytest.raises(ValueError, match="u_start"):
                solve(problem, system, parameter, u_start=start)


def test_max_iter_returns_unconverged_report(level3):
    problem, mesh, system = level3
    report = solve_wsm(problem, system, (0.5, 0.5), BBConfig(max_iter=2))
    assert not report.converged
    assert report.iterations == 2


def test_constant_gradient_triggers_fallback(level3):
    # linear objective: Delta g = 0 forces the fallback step every pass
    problem, mesh, system = level3
    ones = np.ones(mesh.num_triangles)

    def grad(u):
        return ones, ObjectivePair(0.0, 0.0)

    u0 = clip(np.zeros(mesh.num_triangles), problem.bounds)
    u_minus1 = np.full(mesh.num_triangles, 0.01)
    report = bb_projected_gradient(problem, grad, u0, u_minus1, BBConfig(max_iter=50))
    assert report.fallback_steps >= 1
    assert report.converged
    assert np.all(report.control == problem.bounds.ua)


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


def test_racing_first_solves_match_serial(bench, system_for, race):
    # no lock: eight threads race on the Green's function precompute of one fresh problem
    _, system = system_for(4)

    def fresh():
        return ProblemData(
            obs1=bench.obs1, y1=bench.y1, obs2=bench.obs2, y2=bench.y2,
            lambda1=bench.lambda1, lambda2=bench.lambda2, bounds=bench.bounds,
        )

    alphas = [(a, 1.0 - a) for a in np.linspace(0.1, 0.9, 8)]
    serial = [solve_wsm(fresh(), system, alpha).control for alpha in alphas]
    problem = fresh()
    results = [None] * 8

    def work(i):
        results[i] = solve_wsm(problem, system, alphas[i]).control

    race(work)
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)


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
    greens = greens_function_means(problem, system)
    for kind, parameter in [("wsm", (0.3, 0.7)), ("rpm", (0.0, 0.0))]:
        pde = pde_grad_eval(problem, system, kind, parameter)
        for _ in range(3):
            u = rng.uniform(problem.bounds.ua, problem.bounds.ub, mesh.num_triangles)
            g_pde, j_pde = pde(u)
            r, j = eval_objectives(problem, greens, mesh.element_area, u)
            if kind == "wsm":
                g = grad_wsm(problem, greens, r, u, parameter)
            else:
                g = grad_rpm(problem, greens, r, u, parameter, j)
            assert j.as_array() == pytest.approx(j_pde.as_array(), rel=1e-12, abs=0)
            assert np.abs(g - g_pde).max() <= 1e-12 * np.abs(g_pde).max()
        # the solver's BB run against BB on the PDE route from the solver's starts
        solve = solve_wsm if kind == "wsm" else solve_rpm
        report = solve(problem, system, parameter)
        u0 = np.zeros(mesh.num_triangles)
        oracle = bb_projected_gradient(problem, pde, u0, u0 + 1e-2, BBConfig())
        assert report.converged and oracle.converged
        assert (report.iterations, report.fallback_steps) == (oracle.iterations, oracle.fallback_steps)
        assert report.objectives.as_array() == pytest.approx(oracle.objectives.as_array(), rel=1e-12, abs=0)


def test_wsm_converges_on_mesh_without_unknowns(bench):
    mesh = build_uniform_mesh(0)
    report = solve_wsm(bench, assemble_stiffness(mesh), (0.5, 0.5))
    assert report.converged
    assert report.objectives == ObjectivePair(18.0, 2.0)
    assert np.all(report.control == 0.0)


def test_wsm_front_endpoints():
    from mopoisson import benchmark_problem

    problem = benchmark_problem(1.0, 1.0)
    mesh = build_uniform_mesh(2)
    system = assemble_stiffness(mesh)
    eps = 1e-3
    front = wsm_front(problem, system, 2, eps=eps)
    alphas = [e.parameter for e in front.entries]
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
    assert np.array_equal(middle.report.control, standalone.control)
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


def test_rpm_front_ends_where_the_reference_point_update_fails(bench, monkeypatch):
    import mopoisson.scalarize

    def fail(*args):
        raise ValueError("reference point coincides with the objective value")

    system = assemble_stiffness(build_uniform_mesh(3))
    full = rpm_front(bench, system, 6, 0.2, 0.2)
    monkeypatch.setattr(mopoisson.scalarize, "next_reference_point", fail)
    front = rpm_front(bench, system, 6, 0.2, 0.2)
    assert [e.method for e in front.entries] == ["wsm", "rpm", "wsm"]
    assert np.array_equal(front.objective_array()[:2], full.objective_array()[:2])
    assert front.entries[-1].parameter == full.entries[-1].parameter
    assert front.entries[-1].report.objectives == full.entries[-1].report.objectives


def test_rpm_front_entries_dominate_their_reference(bench):
    mesh = build_uniform_mesh(4)
    system = assemble_stiffness(mesh)
    front = rpm_front(bench, system, 8, 0.2, 0.2)
    for entry in front.entries:
        if entry.method != "rpm" or not entry.report.converged:
            continue
        j = entry.report.objectives
        assert j.j1 >= entry.parameter[0] - 1e-8
        assert j.j2 >= entry.parameter[1] - 1e-8
    assert mutually_nondominated(front.objective_array())
    # the sweep ended by its own rule, not by a reference point that met its objective pair
    last = [e for e in front.entries if e.method == "rpm"][-1]
    following = next_reference_point(last.parameter, last.report.objectives.as_array(), 0.2, 0.2)
    assert len(front.entries) == 9 or following[0] >= front.entries[-1].report.objectives.j1


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
    with pytest.raises(SolverError, match="did not converge") as info:
        ideal_vector(bench, system, config=BBConfig(max_iter=1))
    unconverged = solve_wsm(bench, system, (1.0 - 1e-3, 1e-3), BBConfig(max_iter=1))
    assert info.value.residual == unconverged.final_residual > 0.0
    front = wsm_front(bench, system, 7)
    objectives = front.objective_array()
    assert np.all(ideal[0] <= objectives[:, 0] + 1e-6)
    assert np.all(ideal[1] <= objectives[:, 1] + 1e-6)


def test_zeta_validity_flag_records_overshoot(bench):
    mesh = build_uniform_mesh(3)
    system = assemble_stiffness(mesh)
    # reference point far above the attainable front: j - zeta goes negative
    report = solve_rpm(bench, system, (100.0, 100.0))
    assert not (report.objectives.j1 > 100.0 and report.objectives.j2 > 100.0)


def test_control_saturates_near_observation_points(bench, system_for):
    # strong weight on the second criterion clamps the control at the lower
    # bound around its observation point
    mesh, system = system_for(6)
    report = solve_wsm(bench, system, (0.2, 0.8))
    values = report.control
    centroids = mesh_nodes(mesh)[mesh_triangles(mesh)].mean(axis=1)
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


def _outcome(report):
    return (report.control.tobytes(), report.objectives, report.iterations, report.fallback_steps,
            report.final_residual, report.converged)


@pytest.mark.parametrize("level", [3, 5])
def test_in_place_bb_loop_is_exact(bench, system_for, monkeypatch, level):
    """Solver and allocate-per-operation reference agree bit for bit; no input array is written."""
    import mopoisson.scalarize

    mesh, system = system_for(level)
    warm = solve_wsm(bench, system, (0.6, 0.4)).control
    cases = [(solve, p, start) for solve, p in [(solve_wsm, (0.3, 0.7)), (solve_rpm, (16.5, 1.5))]
             for start in (None, warm)]
    inputs = []

    def recording(problem, grad_eval, u0, u_minus1, config):
        def recorded(u):
            g, j = grad_eval(u)
            inputs.append((g, g.copy()))
            return g, j

        inputs.extend([(u0, u0.copy()), (u_minus1, u_minus1.copy())])
        return bb_projected_gradient(problem, recorded, u0, u_minus1, config)

    monkeypatch.setattr(mopoisson.scalarize, "bb_projected_gradient", recording)
    solver = [_outcome(solve(bench, system, p, u_start=start)) for solve, p, start in cases]
    assert inputs and all(np.array_equal(array, copy) for array, copy in inputs)
    monkeypatch.setattr(mopoisson.scalarize, "bb_projected_gradient", reference_bb)
    assert solver == [_outcome(solve(bench, system, p, u_start=start)) for solve, p, start in cases]


def test_in_place_bb_loop_is_exact_through_fallbacks(level3, rng):
    # concave in every third entry: nonpositive curvature mixes fallback and BB steps
    problem, mesh, system = level3
    sign = np.where(np.arange(mesh.num_triangles) % 3 == 0, -1.0, 1.0)
    target = rng.uniform(-3.0, 3.0, mesh.num_triangles)

    def grad(u):
        return sign * (u - target), ObjectivePair(0.0, 0.0)

    u0 = rng.uniform(-1.0, 1.0, mesh.num_triangles)
    u_minus1 = rng.uniform(-1.0, 1.0, mesh.num_triangles)
    for config in (BBConfig(), BBConfig(max_iter=1), BBConfig(max_iter=2), BBConfig(max_iter=3)):
        report = bb_projected_gradient(problem, grad, u0, u_minus1, config)
        assert _outcome(report) == _outcome(reference_bb(problem, grad, u0, u_minus1, config))
        assert report.fallback_steps >= (config.max_iter >= 3)  # the first fallback comes in the third pass


@pytest.mark.parametrize("max_iter", [3, 5000])
def test_residual_formed_without_stopping_is_exact(level3, max_iter):
    """Passes whose step gap is within ``tol`` form a residual too large to stop at."""
    problem, mesh, system = level3
    ones = np.ones(mesh.num_triangles)

    def grad(u):  # linear objective: unit fallback steps, so every gap after the first is 0
        return ones, ObjectivePair(0.0, 0.0)

    u0 = np.zeros(mesh.num_triangles)
    u_minus1 = np.full(mesh.num_triangles, 0.01)
    config = BBConfig(max_iter=max_iter)
    checks = []
    reference = reference_bb(problem, grad, u0, u_minus1, config, checks)
    assert any(gap <= config.tol < residual for gap, residual in checks[:-1])
    assert _outcome(bb_projected_gradient(problem, grad, u0, u_minus1, config)) == _outcome(reference)


def _old_entry_check_rejects(bounds, v0, v1):
    """The entry rule before the min/max form: clip and compare, then the equal-pair test."""
    def infeasible(v):
        return not np.array_equal(np.clip(v, bounds.ua, bounds.ub), v)

    return infeasible(v0) or infeasible(v1) or np.array_equal(v0, v1)


@st.composite
def _entry_values(draw, ua, ub):
    """Eight in-box values, in-box edges included, with at most one value injected from
    NaN, signed zeros, infinities and the floats one ulp outside the box."""
    edges = [v for v in (ua, ub, np.nextafter(ua, np.inf), np.nextafter(ub, -np.inf)) if ua <= v <= ub]
    values = draw(st.lists(st.one_of(st.sampled_from(edges), st.floats(ua, ub)), min_size=8, max_size=8))
    injected = [np.nan, 0.0, -0.0, np.inf, -np.inf, np.nextafter(ua, -np.inf), np.nextafter(ub, np.inf)]
    if draw(st.booleans()):
        values[draw(st.integers(0, 7))] = draw(st.sampled_from(injected))
    return np.array(values)


@st.composite
def _entry_case(draw):
    ua, ub = draw(st.sampled_from([(0.0, 1.0), (-1.0, 0.0), (-0.0, 0.0), (-7.0, 15.0), (0.5, 0.5)]))
    v0 = draw(_entry_values(ua, ub))
    v1 = v0.copy() if draw(st.integers(0, 3)) == 0 else draw(_entry_values(ua, ub))
    return BoxBounds(ua, ub), v0, v1


@settings(deadline=None, max_examples=200)
@given(_entry_case())
def test_entry_checks_reject_exactly_what_clip_and_compare_rejects(level3, case):
    problem, _, _ = level3
    bounds, v0, v1 = case
    boxed = ProblemData(obs1=problem.obs1, y1=problem.y1, obs2=problem.obs2, y2=problem.y2,
                        lambda1=problem.lambda1, lambda2=problem.lambda2, bounds=bounds)

    def grad(u):
        return np.zeros_like(u), ObjectivePair(0.0, 0.0)

    run = lambda: bb_projected_gradient(boxed, grad, v0, v1, BBConfig(max_iter=1))
    if _old_entry_check_rejects(bounds, v0, v1):
        with pytest.raises(ValueError):
            run()
    else:
        run()


@pytest.mark.parametrize("solve, parameter", [(solve_wsm, (0.3, 0.7)), (solve_rpm, (16.5, 1.5))])
def test_starting_pair_matches_the_clip_and_where_construction(bench, system_for, monkeypatch, solve, parameter):
    """The reference loop from freshly built starting arrays ends where the solver does, bit for bit."""
    import mopoisson.scalarize

    mesh, system = system_for(5)
    warm = solve_wsm(bench, system, (0.6, 0.4)).control
    grad_evals = []

    def recording(problem, grad_eval, u0, u_minus1, config):
        grad_evals.append(grad_eval)
        return bb_projected_gradient(problem, grad_eval, u0, u_minus1, config)

    monkeypatch.setattr(mopoisson.scalarize, "bb_projected_gradient", recording)
    greens = greens_function_means(bench, system)
    for start in (None, warm):
        report = solve(bench, system, parameter, u_start=start)
        pair = clip_and_where_starting_pair(bench.bounds, mesh, start)
        reference = reference_bb(bench, grad_evals[-1], *pair, BBConfig())
        if solve is solve_wsm:  # its evaluations skip the pair; the solver forms it from the final iterate
            assert reference.objectives is None
            reference.objectives = eval_objectives(bench, greens, mesh.element_area, reference.control)[1]
        assert _outcome(report) == _outcome(reference)


@pytest.mark.parametrize("level", [3, 5])
def test_report_pair_is_the_pair_of_its_control(bench, system_for, level):
    """Cold, warm and swept reports hold exactly ``eval_objectives`` at their control."""
    mesh, system = system_for(level)
    greens = greens_function_means(bench, system)
    warm = solve_wsm(bench, system, (0.6, 0.4)).control
    reports = [solve(bench, system, p, u_start=start)
               for solve, p in [(solve_wsm, (0.3, 0.7)), (solve_rpm, (16.5, 1.5))] for start in (None, warm)]
    reports += [e.report for e in wsm_front(bench, system, 6).entries]
    reports += [e.report for e in wsm_front(bench, system, 3, config=BBConfig(max_iter=2)).entries]
    for report in reports:
        assert report.objectives == eval_objectives(bench, greens, mesh.element_area, report.control)[1]


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before CPython 3.11 the caller's evaluation stack keeps the starting pair alive for the whole call",
)
def test_solve_peak_stays_within_six_control_vectors(bench, system_for):
    mesh, system = system_for(7)
    warm = solve_wsm(bench, system, (0.6, 0.4)).control  # the problem now holds the Green's means
    vector = mesh.num_triangles * np.dtype(np.float64).itemsize
    for solve, parameter in [(solve_wsm, (0.3, 0.7)), (solve_rpm, (16.5, 1.5))]:
        for start in (None, warm):
            tracemalloc.start()
            try:
                solve(bench, system, parameter, u_start=start)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6.5 * vector, (solve.__name__, start is None, peak / vector)

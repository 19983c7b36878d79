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
    benchmark_problem,
    ideal_vector,
    rpm_front,
    solve_rpm,
    solve_wsm,
    wsm_front,
)
from mopoisson.control import l2_error, prolong
from mopoisson.fem import assemble_stiffness
from mopoisson.mesh import build_uniform_mesh
from mopoisson.objective import (
    ObjectivePair,
    eval_objectives,
    grad_rpm,
    grad_wsm,
    gram_matrix,
    greens_function_means,
)
from mopoisson.scalarize import bb_projected_gradient, next_reference_point
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
    oracle_coefficients,
    pareto_ordered,
    pde_grad_eval,
    pde_objectives,
    power_iteration_bound,
    reference_adjoint_bb,
    reference_bb,
    reflect_problem,
    reflect_triangle_permutation,
    rule_gradient,
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


def fixed(greens, w, lam):
    """Loop arguments for the gradient ``G^T w + lam u`` with fixed ``w`` and ``lam``."""
    greens, w = np.atleast_2d(greens), np.asarray(w, dtype=float)
    return greens, gram_matrix(greens), (lambda Gu, uu: (w, lam), False)


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
    # a fractional cap ran past it and reported an infinite residual; an infinite one never stopped
    for max_iter in (2.5, np.inf, 4.0, np.nan, "5"):
        with pytest.raises(ValueError, match="max_iter"):
            BBConfig(max_iter=max_iter)
    assert BBConfig(max_iter=np.int64(3)).max_iter == 3


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
    zero = np.zeros(mesh.num_triangles)  # the gradient lam u: no observation term

    # the loop's second start is 5.01: the box -7 <= u <= 15 gives the offset 1e-2
    report = bb_projected_gradient(*fixed(zero, [0.0], lam), mesh, problem.bounds, BBConfig(),
                                   np.full(mesh.num_triangles, 5.0))
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


def test_nan_start_is_refused_and_infinite_values_are_clipped(level3):
    problem, mesh, system = level3
    bounds = problem.bounds
    start = np.zeros(mesh.num_triangles)
    start[5] = np.nan
    with pytest.raises(ValueError, match="u_start"):
        bb_projected_gradient(*fixed(np.zeros(mesh.num_triangles), [0.0], 1.0), mesh, bounds, BBConfig(), start)
    start[5], start[6] = np.inf, -np.inf
    clipped = start.copy()
    clipped[5], clipped[6] = bounds.ub, bounds.ua
    for solve, parameter in [(solve_wsm, (0.5, 0.5)), (solve_rpm, (16.5, 1.5))]:
        start[7] = np.nan
        with pytest.raises(ValueError, match="u_start"):
            solve(problem, system, parameter, u_start=start)
        start[7] = 0.0
        assert _outcome(solve(problem, system, parameter, u_start=start)) == _outcome(
            solve(problem, system, parameter, u_start=clipped))
        assert start[5] == np.inf and start[6] == -np.inf  # the start is never written


def test_solves_at_a_level_with_means_build_no_mesh(bench, system_for, monkeypatch):
    mesh, system = system_for(4)
    warm = solve_wsm(bench, system, (0.6, 0.4)).control  # the problem now holds the Green's means
    calls = []

    def counted(level):
        calls.append(level)
        return build_uniform_mesh(level)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "mopoisson"]:
        if getattr(module, "build_uniform_mesh", None) is build_uniform_mesh:
            monkeypatch.setattr(module, "build_uniform_mesh", counted)
    for solve, parameter in [(solve_wsm, (0.3, 0.7)), (solve_rpm, (16.5, 1.5))]:
        for start in (None, warm):
            assert solve(bench, system, parameter, u_start=start).converged
    assert calls == []


def test_warm_start_from_another_level_is_rejected(level3):
    """Finer, 2-D and wrong-length starts; a coarser one is prolonged (see below)."""
    problem, mesh, system = level3
    for start in (np.zeros(2 * 4 ** 4), np.zeros((mesh.num_triangles, 1)), np.zeros(100), [0.0] * 9):
        for solve, parameter in [(solve_wsm, (0.5, 0.5)), (solve_rpm, (16.5, 1.5))]:
            with pytest.raises(ValueError, match="u_start"):
                solve(problem, system, parameter, u_start=start)


@pytest.mark.parametrize("coarse_level", [1, 3])
def test_coarse_start_is_its_prolongation_bit_for_bit(bench, system_for, coarse_level):
    """A level-k start of a level-5 solve runs as ``prolong(start, 5)`` does and is never written."""
    _, coarse_system = system_for(coarse_level)
    mesh, system = system_for(5)
    coarse = solve_wsm(bench, coarse_system, (0.6, 0.4)).control
    coarse[:4] = [40.0, -40.0, np.inf, -np.inf]  # clipped inside the loop
    before = coarse.copy()
    for solve, parameter in [(solve_wsm, (0.3, 0.7)), (solve_rpm, (16.5, 1.5))]:
        report = solve(bench, system, parameter, u_start=coarse)
        assert _outcome(report) == _outcome(solve(bench, system, parameter, u_start=prolong(coarse, 5)))
        assert report.converged and np.array_equal(coarse, before)
    assert _outcome(solve_wsm(bench, system, (0.5, 0.5), u_start=list(coarse))) == _outcome(
        solve_wsm(bench, system, (0.5, 0.5), u_start=coarse))


def test_cold_start_is_zero_clipped_into_the_box(level3):
    problem, mesh, system = level3
    for bounds in (BoxBounds(1.0, 2.0), BoxBounds(-2.0, -1.0)):  # boxes without 0
        boxed = ProblemData(obs1=problem.obs1, y1=problem.y1, obs2=problem.obs2, y2=problem.y2,
                            lambda1=problem.lambda1, lambda2=problem.lambda2, bounds=bounds)
        for solve, parameter in [(solve_wsm, (0.5, 0.5)), (solve_rpm, (16.5, 1.5))]:
            assert _outcome(solve(boxed, system, parameter)) == _outcome(
                solve(boxed, system, parameter, u_start=np.full(mesh.num_triangles, np.clip(0.0, bounds.ua, bounds.ub))))


def test_nan_in_a_coarse_start_is_refused(level3):
    problem, mesh, system = level3
    start = np.zeros(2 * 4 ** 2)
    start[5] = np.nan
    for solve, parameter in [(solve_wsm, (0.5, 0.5)), (solve_rpm, (16.5, 1.5))]:
        with pytest.raises(ValueError, match="u_start holds a NaN"):
            solve(problem, system, parameter, u_start=start)


def test_max_iter_returns_unconverged_report(level3):
    problem, mesh, system = level3
    report = solve_wsm(problem, system, (0.5, 0.5), BBConfig(max_iter=2))
    assert not report.converged
    assert report.iterations == 2


def test_constant_gradient_triggers_fallback(level3):
    # linear objective: Delta g = 0 forces the fallback step every pass
    problem, mesh, system = level3
    ones = np.ones(mesh.num_triangles)  # the gradient G^T w with G = ones and w = 1

    report = bb_projected_gradient(*fixed(ones, [1.0], 0.0), mesh, problem.bounds, BBConfig(max_iter=50))
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
            g_pde, j_pde = pde(u), pde_objectives(problem, system, u)[0]
            j = eval_objectives(problem, greens, mesh.element_area, u)[1]
            g = (grad_wsm if kind == "wsm" else grad_rpm)(problem, greens, mesh.element_area, u, parameter)
            assert j.as_array() == pytest.approx(j_pde.as_array(), rel=1e-12, abs=0)
            assert np.abs(g - g_pde).max() <= 1e-12 * np.abs(g_pde).max()
        # the solver's BB run against the gradient-form BB loop on the PDE route from the solver's starts
        solve = solve_wsm if kind == "wsm" else solve_rpm
        report = solve(problem, system, parameter)
        oracle = _reference_from_start(pde, mesh, problem.bounds, BBConfig())
        assert report.converged and oracle.converged
        assert (report.iterations, report.fallback_steps) == (oracle.iterations, oracle.fallback_steps)
        j_oracle = pde_objectives(problem, system, oracle.control)[0]
        assert report.objectives.as_array() == pytest.approx(j_oracle.as_array(), rel=1e-12, abs=0)


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
    for l_max in [1, 3.5, np.float64(4.0), "4"]:  # range() raised TypeError on the fractional sizes
        with pytest.raises(ValueError, match="front sizes"):
            wsm_front(problem, system, l_max)
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
    # the loop bound ell <= l_max - 1 admitted 4 entries for 3.5 and 5 for 4.0
    for l_max in [1, 3.5, np.float64(4.0), "4"]:
        with pytest.raises(ValueError, match="front sizes"):
            rpm_front(problem, system, l_max, 0.2, 0.2)
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


def _reference_from_start(grad_eval, mesh, bounds, config, u_start=None):
    """``reference_bb`` on explicit gradients from the pair of ``clip_and_where_starting_pair``."""
    return reference_bb(bounds, grad_eval, *clip_and_where_starting_pair(bounds, mesh, u_start), config)


def _adjoint_reference(greens, rule, mesh, bounds, config, u_start=None):
    """``reference_adjoint_bb`` from the pair of ``clip_and_where_starting_pair``."""
    return reference_adjoint_bb(bounds, greens, rule, *clip_and_where_starting_pair(bounds, mesh, u_start), config)


@pytest.mark.parametrize("level", [3, 5])
def test_in_place_bb_loop_is_exact(bench, system_for, monkeypatch, level):
    """Solver and allocate-per-operation reference agree bit for bit; no input array is written."""
    import mopoisson.scalarize

    mesh, system = system_for(level)
    warm = solve_wsm(bench, system, (0.6, 0.4)).control
    cases = [(solve, p, start) for solve, p in [(solve_wsm, (0.3, 0.7)), (solve_rpm, (16.5, 1.5))]
             for start in (None, warm)]
    inputs = []

    def recording(greens, gram, coefficients, mesh, bounds, config, u_start=None):
        rule, varying = coefficients

        def recorded(Gu, uu):
            w, lam = rule(Gu, uu)
            inputs.extend([(Gu, Gu.copy()), (w, w.copy())])
            return w, lam

        inputs.extend([(greens, greens.copy()), (gram, gram.copy())])
        if u_start is not None:
            inputs.append((u_start, u_start.copy()))
        return bb_projected_gradient(greens, gram, (recorded, varying), mesh, bounds, config, u_start)

    monkeypatch.setattr(mopoisson.scalarize, "bb_projected_gradient", recording)
    solver = [_outcome(solve(bench, system, p, u_start=start)) for solve, p, start in cases]
    assert inputs and all(np.array_equal(array, copy) for array, copy in inputs)
    reference = []
    for solve, p, start in cases:
        rule = oracle_coefficients(bench, mesh.element_area, "wsm" if solve is solve_wsm else "rpm", p)
        monkeypatch.setattr(mopoisson.scalarize, "bb_projected_gradient",
                            lambda greens, gram, coefficients, *args: _adjoint_reference(greens, rule, *args))
        reference.append(_outcome(solve(bench, system, p, u_start=start)))
    assert solver == reference


def test_in_place_bb_loop_is_exact_through_fallbacks(level3, rng):
    # a negative lam is concave off the span of G's rows: nonpositive curvature mixes fallback and BB steps
    problem, mesh, system = level3
    greens = rng.normal(size=(3, mesh.num_triangles))
    target = rng.uniform(-3.0, 3.0, 3)

    def rule(Gu, uu):
        return 3.0 * Gu / mesh.num_triangles - target, -0.3

    start = rng.uniform(-1.0, 1.0, mesh.num_triangles)
    for config in (BBConfig(max_iter=1), BBConfig(max_iter=2), BBConfig(max_iter=3), BBConfig()):
        report = bb_projected_gradient(greens, gram_matrix(greens), (rule, False), mesh, problem.bounds, config, start)
        assert _outcome(report) == _outcome(_adjoint_reference(greens, rule, mesh, problem.bounds, config, start))
        assert report.fallback_steps >= 1  # the first fallback comes in the first pass
    assert report.converged and report.fallback_steps < report.iterations  # 32 fallbacks in 40 passes


@pytest.mark.parametrize("max_iter", [3, 5000])
def test_residual_formed_without_stopping_is_exact(level3, max_iter):
    """Passes whose step gap is within ``tol`` form a residual too large to stop at."""
    problem, mesh, system = level3
    # linear objective, the gradient G^T w with G = ones and w = 1: unit fallback steps, so every gap after the first is 0
    greens, gram, coefficients = fixed(np.ones(mesh.num_triangles), [1.0], 0.0)
    config = BBConfig(max_iter=max_iter)
    checks = []
    reference = reference_adjoint_bb(problem.bounds, greens, coefficients[0],
                                     *clip_and_where_starting_pair(problem.bounds, mesh, None), config, checks)
    assert any(gap <= config.tol < residual for gap, residual in checks[:-1])
    assert _outcome(bb_projected_gradient(greens, gram, coefficients, mesh, problem.bounds, config)) == _outcome(
        reference)


@pytest.mark.parametrize("solve, parameter", [(solve_wsm, (0.3, 0.7)), (solve_rpm, (16.5, 1.5))])
def test_starting_pair_matches_the_clip_and_where_construction(bench, system_for, solve, parameter):
    """The reference loop from freshly built starting arrays ends where the solver does, bit for bit."""
    mesh, system = system_for(5)
    warm = solve_wsm(bench, system, (0.6, 0.4)).control
    greens = greens_function_means(bench, system)
    rule = oracle_coefficients(bench, mesh.element_area, "wsm" if solve is solve_wsm else "rpm", parameter)
    for start in (None, warm):
        report = solve(bench, system, parameter, u_start=start)
        pair = clip_and_where_starting_pair(bench.bounds, mesh, start)
        reference = reference_adjoint_bb(bench.bounds, greens, rule, *pair, BBConfig())
        # the loop returns no pair; the solver forms it from the returned control
        reference.objectives = eval_objectives(bench, greens, mesh.element_area, reference.control)[1]
        assert _outcome(report) == _outcome(reference)


@settings(deadline=None, max_examples=20, derandomize=True)
@given(
    level=st.integers(0, 6),
    kind=st.sampled_from(["wsm", "rpm", "constant"]),
    a2=st.floats(0.05, 0.95),
    zeta=st.tuples(st.floats(15.0, 19.0), st.floats(0.0, 3.5)),
    warm=st.booleans(),
)
def test_adjoint_loop_matches_the_gradient_form_loop(bench, system_for, level, kind, a2, zeta, warm):
    """The solver's loop against ``reference_bb``, which forms ``g``, ``dg`` and ``du`` as arrays.

    Near convergence both quotients carry the rounding of ``w`` and ``lam``
    at two nearby iterates, in equal measure.  Where the coefficients move
    (reference points) that reaches the control: RPM solves of 78-219
    passes ended 3e-12 to 7e-12 apart in L2, with equal pass counts.
    """
    mesh, system = system_for(level)
    bounds = bench.bounds
    start = solve_wsm(bench, system, (0.6, 0.4)).control if warm else None
    if kind == "constant":  # Delta g = 0: every step is the fallback
        config = BBConfig(max_iter=50)
        greens, gram, coefficients = fixed(np.ones(mesh.num_triangles), [1.0], 0.0)
        report = bb_projected_gradient(greens, gram, coefficients, mesh, bounds, config, start)
        rule = coefficients[0]
    else:
        config = BBConfig()
        parameter = (1.0 - a2, a2) if kind == "wsm" else zeta
        report = (solve_wsm if kind == "wsm" else solve_rpm)(bench, system, parameter, config, start)
        greens = greens_function_means(bench, system)
        rule = oracle_coefficients(bench, mesh.element_area, kind, parameter)
    oracle = _reference_from_start(rule_gradient(greens, rule), mesh, bounds, config, start)
    assert (report.iterations, report.fallback_steps, report.converged) == (
        oracle.iterations, oracle.fallback_steps, oracle.converged)
    assert l2_norm(report.control - oracle.control) <= (1e-10 if kind == "rpm" else 1e-12)


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


def test_solve_peak_stays_within_five_control_vectors(bench, system_for):
    mesh, system = system_for(7)
    warm = solve_wsm(bench, system, (0.6, 0.4)).control  # the problem now holds the Green's means
    coarse = solve_wsm(bench, system_for(6)[1], (0.6, 0.4)).control  # prolonged inside the loop
    vector = mesh.num_triangles * np.dtype(np.float64).itemsize
    for solve, parameter in [(solve_wsm, (0.3, 0.7)), (solve_rpm, (16.5, 1.5))]:
        for start in (None, warm, coarse):
            tracemalloc.start()
            try:
                solve(bench, system, parameter, u_start=start)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 * vector, (solve.__name__, None if start is None else len(start), peak / vector)

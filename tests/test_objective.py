import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopoisson import (
    BoxBounds,
    ProblemData,
    assemble_point_load,
    assemble_stiffness,
    build_uniform_mesh,
    eval_objectives,
    evaluate,
    grad_rpm,
    grad_wsm,
    pi0_project,
    solve_adjoints,
    solve_spd,
    solve_state,
)
from mopoisson.objective import greens_function_means
from oracles import (
    MESH_SYMMETRIES,
    central_difference,
    gather_greens_means,
    interior_nodes,
    l2_inner,
    scalarized_gradient,
    symmetry_triangle_permutation,
)


@pytest.fixture(scope="module")
def setup(bench):
    mesh = build_uniform_mesh(3)
    return bench, mesh, assemble_stiffness(mesh).factorize()


def feasible(problem, mesh, rng):
    return rng.uniform(problem.bounds.ua, problem.bounds.ub, mesh.num_triangles)


def objectives(problem, system, u):
    """The solver's objective pair of ``u``, from the Green's function means."""
    return eval_objectives(problem, greens_function_means(problem, system), system.mesh.element_area, u)[1]


def test_problem_data_validation():
    box = BoxBounds(-1.0, 1.0)
    # a (0, 2) array is an empty set; a bare [] is read as one point without coordinates
    with pytest.raises(ValueError, match="observation set 1 is empty"):
        ProblemData(obs1=np.empty((0, 2)), y1=[], obs2=[(0.5, 0.5)], y2=[1.0], lambda1=1, lambda2=1, bounds=box)
    with pytest.raises(ValueError, match="observation set 1 and desired values do not match"):
        ProblemData(obs1=[], y1=[], obs2=[(0.5, 0.5)], y2=[1.0], lambda1=1, lambda2=1, bounds=box)
    with pytest.raises(ValueError):
        ProblemData(obs1=[(0.0, 0.5)], y1=[1.0], obs2=[(0.5, 0.5)], y2=[1.0],
                    lambda1=1, lambda2=1, bounds=box)
    with pytest.raises(ValueError):
        ProblemData(obs1=[(0.5, 0.5)], y1=[1.0], obs2=[(0.25, 0.25)], y2=[1.0],
                    lambda1=0.0, lambda2=1, bounds=box)
    for y, lam in [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)]:
        with pytest.raises(ValueError):
            ProblemData(obs1=[(0.5, 0.5)], y1=[y], obs2=[(0.25, 0.25)], y2=[1.0],
                        lambda1=lam, lambda2=1, bounds=box)
    # immutable, and independent of the caller's arrays
    obs1, y2 = np.array([[0.75, 0.25]]), np.array([-2.0])
    problem = ProblemData(obs1=obs1, y1=[6.0], obs2=[(0.25, 0.75)], y2=y2, lambda1=1, lambda2=1, bounds=box)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.lambda1 = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.obs1 = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError):
        problem.obs1[0, 0] = 0.5
    with pytest.raises(ValueError):
        problem.y2[0] = 0.0
    obs1[0, 0], y2[0] = 0.5, 0.0
    assert problem.obs1.tolist() == [[0.75, 0.25]] and problem.y2.tolist() == [-2.0]


def test_zero_control_gives_zero_state(setup):
    problem, mesh, system = setup
    y = solve_state(system, np.zeros(mesh.num_triangles))
    assert np.all(y == 0.0)


def test_state_is_linear_in_control(setup, rng):
    problem, mesh, system = setup
    u = feasible(problem, mesh, rng)
    v = feasible(problem, mesh, rng)
    yu = solve_state(system, u)
    yv = solve_state(system, v)
    ys = solve_state(system, u + v)
    assert np.abs(ys - (yu + yv)).max() <= 1e-10


def test_state_level_one_value(bench):
    mesh = build_uniform_mesh(1)
    system = assemble_stiffness(mesh)
    y = solve_state(system, np.ones(mesh.num_triangles))
    assert y[interior_nodes(mesh)][0] == pytest.approx(0.0625)


def test_adjoints_vanish_when_state_matches_desired(setup, rng):
    problem, mesh, system = setup
    u = feasible(problem, mesh, rng)
    state = solve_state(system, u)
    matched = ProblemData(
        obs1=problem.obs1, y1=evaluate(mesh, state, problem.obs1),
        obs2=problem.obs2, y2=evaluate(mesh, state, problem.obs2),
        lambda1=problem.lambda1, lambda2=problem.lambda2, bounds=problem.bounds,
    )
    (r1, m1), (r2, m2) = solve_adjoints(matched, system, state)
    assert np.abs(m1).max() <= 1e-12
    assert np.abs(m2).max() <= 1e-12
    assert np.abs(r1).max() <= 1e-15


def test_adjoint_matches_unit_load_oracle(setup, rng):
    problem, mesh, system = setup
    u = feasible(problem, mesh, rng)
    state = solve_state(system, u)
    (residuals1, adjoint_means1), _ = solve_adjoints(problem, system, state)
    r = residuals1[0]
    unit = pi0_project(mesh, solve_spd(system, assemble_point_load(mesh, problem.obs1, [1.0])))
    assert np.abs(adjoint_means1 - r * unit).max() <= 1e-10 * max(1, abs(r))
    # a state of another level has another node count
    with pytest.raises(ValueError, match="nodal value count"):
        solve_adjoints(problem, system, np.zeros(build_uniform_mesh(2).num_nodes))


def test_discrete_greens_function_symmetry(setup):
    problem, mesh, system = setup
    a, b = (0.375, 0.625), (0.625, 0.125)
    ga = solve_spd(system, assemble_point_load(mesh, [a], [1.0]))
    gb = solve_spd(system, assemble_point_load(mesh, [b], [1.0]))
    assert evaluate(mesh, ga, b)[0] == pytest.approx(evaluate(mesh, gb, a)[0], abs=1e-10)


def test_objectives_at_zero_control(bench):
    # zero control: the state vanishes, leaving half the squared desired values
    mesh = build_uniform_mesh(2)
    system = assemble_stiffness(mesh)
    u = np.zeros(mesh.num_triangles)
    j = objectives(bench, system, u)
    assert j.j1 == pytest.approx(18.0, abs=1e-12)
    assert j.j2 == pytest.approx(2.0, abs=1e-12)


def test_objectives_regularization_only(setup):
    problem, mesh, system = setup
    c = 2.0
    u = np.full(mesh.num_triangles, c)
    state = solve_state(system, u)
    matched = ProblemData(
        obs1=problem.obs1, y1=evaluate(mesh, state, problem.obs1),
        obs2=problem.obs2, y2=evaluate(mesh, state, problem.obs2),
        lambda1=problem.lambda1, lambda2=problem.lambda2, bounds=problem.bounds,
    )
    j = objectives(matched, system, u)
    assert j.j1 == pytest.approx(matched.lambda1 * c * c / 2.0, abs=1e-12)
    assert j.j2 == pytest.approx(matched.lambda2 * c * c / 2.0, abs=1e-12)


def test_objectives_match_hand_composition(setup, rng):
    problem, mesh, system = setup
    u = feasible(problem, mesh, rng)
    state = solve_state(system, u)
    (residuals1, _), (residuals2, _) = solve_adjoints(problem, system, state)
    r, j = eval_objectives(problem, greens_function_means(problem, system), mesh.element_area, u)
    r1 = evaluate(mesh, state, problem.obs1) - problem.y1
    r2 = evaluate(mesh, state, problem.obs2) - problem.y2
    assert np.allclose(residuals1, r1, rtol=0, atol=1e-13)
    assert np.allclose(residuals2, r2, rtol=0, atol=1e-13)
    assert np.allclose(r, np.concatenate((r1, r2)), rtol=0, atol=1e-13)
    assert j.j1 == pytest.approx(0.5 * (r1 @ r1) + 0.5 * problem.lambda1 * l2_inner(u, u))
    assert j.j2 == pytest.approx(0.5 * (r2 @ r2) + 0.5 * problem.lambda2 * l2_inner(u, u))


def _zero_greens(problem, mesh):
    """A zero Green's matrix: every adjoint mean vanishes."""
    return np.zeros((len(problem.obs1) + len(problem.obs2), mesh.num_triangles))


def test_grad_wsm_regularization_term_only(setup):
    problem, mesh, system = setup
    c = 1.7
    u = np.full(mesh.num_triangles, c)
    greens = _zero_greens(problem, mesh)
    alpha = (0.3, 0.7)
    g = grad_wsm(problem, greens, np.ones(len(greens)), u, alpha)
    expected = (alpha[0] * problem.lambda1 + alpha[1] * problem.lambda2) * c
    assert np.allclose(g, expected, atol=1e-14)


def test_grad_wsm_rejects_degenerate_weights(setup):
    problem, mesh, system = setup
    u = np.zeros(mesh.num_triangles)
    greens = _zero_greens(problem, mesh)
    for alpha in [(1.0, 0.0), (0.0, 1.0), (-0.2, 1.2), (0.5, 0.6), (np.nan, np.nan), (0.5, np.nan)]:
        with pytest.raises(ValueError):
            grad_wsm(problem, greens, np.zeros(len(greens)), u, alpha)


def test_grad_rpm_trivial_cases(setup, rng):
    problem, mesh, system = setup
    u = feasible(problem, mesh, rng)
    greens = greens_function_means(problem, system)
    r, j = eval_objectives(problem, greens, mesh.element_area, u)
    zero_gap = grad_rpm(problem, greens, r, u, (j.j1, j.j2), j)
    assert np.abs(zero_gap).max() <= 1e-14
    g = grad_rpm(problem, _zero_greens(problem, mesh), r, u, (0.0, 0.0), j)
    expected = (j.j1 * problem.lambda1 + j.j2 * problem.lambda2) * u
    assert np.allclose(g, expected, atol=1e-12)


@pytest.mark.parametrize("kind", ["wsm", "rpm"])
def test_gradient_against_central_differences(setup, rng, kind):
    problem, mesh, system = setup
    parameter = (0.4, 0.6) if kind == "wsm" else (10.0, 1.0)
    u = feasible(problem, mesh, rng)
    g = scalarized_gradient(problem, system, u, kind, parameter)
    for _ in range(5):
        w = rng.normal(size=mesh.num_triangles)
        fd = central_difference(problem, system, u, w, kind, parameter, step=1e-5)
        exact = l2_inner(g, w)
        assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


@pytest.mark.parametrize("kind", ["wsm", "rpm"])
def test_representer_identity_many_directions(setup, rng, kind):
    problem, mesh, system = setup
    parameter = (0.5, 0.5) if kind == "wsm" else (12.0, 0.5)
    u = feasible(problem, mesh, rng)
    g = scalarized_gradient(problem, system, u, kind, parameter)
    for _ in range(20):
        w = rng.normal(size=mesh.num_triangles)
        fd = central_difference(problem, system, u, w, kind, parameter)
        assert abs(l2_inner(g, w) - fd) <= 1e-6 * (1.0 + abs(fd))


def test_objective_convexity_surrogate(setup, rng):
    problem, mesh, system = setup
    for _ in range(5):
        u = feasible(problem, mesh, rng)
        v = feasible(problem, mesh, rng)
        ju = objectives(problem, system, u)
        jv = objectives(problem, system, v)
        for t in (0.25, 0.5, 0.75):
            mix = t * u + (1 - t) * v
            jm = objectives(problem, system, mix)
            assert jm.j1 <= t * ju.j1 + (1 - t) * jv.j1 + 1e-12
            assert jm.j2 <= t * ju.j2 + (1 - t) * jv.j2 + 1e-12


def test_greens_means_equal_the_gather_route_at_level_8(bench, system_for):
    mesh, system = system_for(8)
    assert np.array_equal(greens_function_means(bench, system), gather_greens_means(bench, system))


# Interior coordinates in units of 2**-12, which both mesh symmetries map without rounding.
DYADIC = st.integers(1, 2 ** 12 - 1)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(
    level=st.integers(1, 6),
    points=st.lists(st.tuples(DYADIC, DYADIC), min_size=2, max_size=4),
    symmetry=st.sampled_from(sorted(MESH_SYMMETRIES)),
)
def test_mirrored_points_give_mirrored_greens_rows(system_for, level, points, symmetry):
    mirror = MESH_SYMMETRIES[symmetry]
    mesh, system = system_for(level)
    points = np.array(points) / 2 ** 12

    def means(obs):
        problem = ProblemData(obs1=obs[:1], y1=[0.0], obs2=obs[1:], y2=np.zeros(len(obs) - 1),
                              lambda1=1, lambda2=1, bounds=BoxBounds(-1.0, 1.0))
        return greens_function_means(problem, system)

    greens = means(points)
    mirrored = means(mirror(points))[:, symmetry_triangle_permutation(mesh, mirror)]
    assert np.abs(mirrored - greens).max() <= 1e-15 * np.abs(greens).max()

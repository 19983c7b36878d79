import numpy as np
import pytest

from mopoisson import (
    P1Function,
    PwcControl,
    SolverError,
    assemble_load_pwc,
    assemble_point_load,
    assemble_stiffness,
    build_uniform_mesh,
    evaluate,
    pi0_project,
    solve_spd,
)
from oracles import (
    dense_stiffness_full,
    dense_stiffness_interior,
    five_point_laplacian,
    manufactured_linf_error,
    quadrature_element_integral,
    quadrature_load_pwc,
)


@pytest.fixture(scope="module")
def level3():
    mesh = build_uniform_mesh(3)
    return mesh, assemble_stiffness(mesh)


def test_level_one_matrix_is_scalar_four():
    system = assemble_stiffness(build_uniform_mesh(1))
    assert system.matrix.shape == (1, 1)
    assert system.matrix.toarray()[0, 0] == pytest.approx(4.0)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_sparse_equals_dense_oracle(level):
    mesh = build_uniform_mesh(level)
    system = assemble_stiffness(mesh)
    dense = dense_stiffness_interior(mesh)
    assert np.abs(system.matrix.toarray() - dense).max() <= 1e-14


def test_level_two_matrix_is_five_point_stencil():
    mesh = build_uniform_mesh(2)
    system = assemble_stiffness(mesh)
    assert np.abs(system.matrix.toarray() - five_point_laplacian(2)).max() <= 1e-14


@pytest.mark.parametrize("level", [1, 2, 3])
def test_matrix_signs_and_exact_symmetry(level):
    matrix = assemble_stiffness(build_uniform_mesh(level)).matrix
    assert (matrix - matrix.T).nnz == 0
    dense = matrix.toarray()
    assert np.all(np.diag(dense) > 0)
    off = dense - np.diag(np.diag(dense))
    assert np.all(off <= 0)


def test_full_rows_sum_to_zero_over_all_columns():
    # partition-of-unity: hat-function gradients sum to zero per triangle
    mesh = build_uniform_mesh(3)
    full = dense_stiffness_full(mesh)
    interior = np.flatnonzero(mesh.interior_mask)
    assert np.abs(full[interior, :].sum(axis=1)).max() <= 1e-13
    block = full[np.ix_(interior, interior)]
    assert np.abs(assemble_stiffness(mesh).matrix.toarray() - block).max() <= 1e-14


def test_zero_control_gives_zero_load():
    mesh = build_uniform_mesh(2)
    load = assemble_load_pwc(mesh, PwcControl(mesh, np.zeros(mesh.num_triangles)))
    assert np.all(load == 0.0)


def test_unit_control_load_level_one():
    mesh = build_uniform_mesh(1)
    load = assemble_load_pwc(mesh, PwcControl(mesh, np.ones(mesh.num_triangles)))
    assert load == pytest.approx([0.25])


def test_random_load_matches_quadrature_oracle(rng):
    mesh = build_uniform_mesh(2)
    u = PwcControl(mesh, rng.normal(size=mesh.num_triangles))
    load = assemble_load_pwc(mesh, u)
    assert np.abs(load - quadrature_load_pwc(mesh, u)).max() <= 1e-14


def test_load_rejects_mesh_mismatch():
    mesh = build_uniform_mesh(2)
    other = build_uniform_mesh(3)
    with pytest.raises(ValueError):
        assemble_load_pwc(mesh, PwcControl(other, np.zeros(other.num_triangles)))


def test_point_load_zero_coefficients():
    mesh = build_uniform_mesh(2)
    load = assemble_point_load(mesh, [(0.3, 0.4), (0.6, 0.7)], [0.0, 0.0])
    assert np.all(load == 0.0)


def test_point_load_at_grid_node_is_scaled_indicator():
    mesh = build_uniform_mesh(2)
    load = assemble_point_load(mesh, [(0.5, 0.5)], [3.5])
    node = np.flatnonzero((mesh.nodes[:, 0] == 0.5) & (mesh.nodes[:, 1] == 0.5))[0]
    unknown = np.flatnonzero(mesh.interior_mask).tolist().index(node)
    expected = np.zeros(load.shape)
    expected[unknown] = 3.5
    assert np.array_equal(load, expected)


def test_point_load_at_centroid_splits_in_thirds():
    mesh = build_uniform_mesh(2)
    t = 2 * (1 * 4 + 1)  # interior cell, lower triangle
    centroid = mesh.nodes[mesh.triangles[t]].mean(axis=0)
    load = assemble_point_load(mesh, [centroid], [1.0])
    nonzero = load[load != 0.0]
    assert nonzero == pytest.approx([1 / 3] * 3)
    assert load.sum() == pytest.approx(1.0)


def test_point_load_rejects_boundary_points():
    mesh = build_uniform_mesh(2)
    with pytest.raises(ValueError):
        assemble_point_load(mesh, [(0.0, 0.5)], [1.0])
    with pytest.raises(ValueError):
        assemble_point_load(mesh, [(0.5, 1.0)], [1.0])
    with pytest.raises(ValueError):
        assemble_point_load(mesh, [(0.5, 0.5), (np.nan, 0.5)], [1.0, 1.0])


def test_solve_zero_rhs_returns_zero_function(level3):
    mesh, system = level3
    y = solve_spd(system, np.zeros(system.num_unknowns))
    assert np.all(y.nodal_values == 0.0)


def test_solve_level_one_hand_value():
    mesh = build_uniform_mesh(1)
    system = assemble_stiffness(mesh)
    y = solve_spd(system, np.array([0.25]))
    assert y.nodal_values[system.interior_nodes] == pytest.approx([0.0625])
    boundary = y.nodal_values[~mesh.interior_mask]
    assert np.all(boundary == 0.0)


def test_solver_residual_contract(level3, rng):
    mesh, system = level3
    rhs = rng.normal(size=system.num_unknowns)
    y = solve_spd(system, rhs, tol=1e-12)
    x = y.nodal_values[system.interior_nodes]
    residual = np.linalg.norm(system.matrix @ x - rhs)
    assert residual <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_lu_agrees_with_dense_solve(level3, rng):
    mesh, system = level3
    rhs = rng.normal(size=system.num_unknowns)
    y = solve_spd(system, rhs)
    dense = np.linalg.solve(dense_stiffness_interior(mesh), rhs)
    assert np.allclose(y.nodal_values[system.interior_nodes], dense, atol=1e-11)


def test_solver_is_deterministic(level3, rng):
    mesh, system = level3
    rhs = rng.normal(size=system.num_unknowns)
    a = solve_spd(system, rhs).nodal_values
    b = solve_spd(system, rhs).nodal_values
    assert np.array_equal(a, b)


def test_solver_failure_carries_residual(level3, rng):
    mesh, system = level3
    rhs = rng.normal(size=system.num_unknowns)
    with pytest.raises(SolverError) as info:
        solve_spd(system, rhs, tol=1e-300)
    assert info.value.residual > 0.0


def test_solve_without_unknowns_returns_zero_function():
    mesh = build_uniform_mesh(0)
    y = solve_spd(assemble_stiffness(mesh), np.zeros(0))
    assert y.nodal_values.shape == (mesh.num_nodes,)
    assert np.all(y.nodal_values == 0.0)


def test_solver_rejects_bad_rhs_length(level3):
    mesh, system = level3
    with pytest.raises(ValueError):
        solve_spd(system, np.zeros(system.num_unknowns + 1))


def test_galerkin_residual_per_basis_function(rng):
    mesh = build_uniform_mesh(3)
    system = assemble_stiffness(mesh)
    u = PwcControl(mesh, rng.normal(size=mesh.num_triangles))
    rhs = assemble_load_pwc(mesh, u)
    y = solve_spd(system, rhs, tol=1e-12)
    # (grad y, grad phi_i) - (u, phi_i) via the dense-oracle full matrix
    full = dense_stiffness_full(mesh)
    interior = np.flatnonzero(mesh.interior_mask)
    lhs = full[interior, :] @ y.nodal_values
    assert np.abs(lhs - rhs).max() <= 1e-11


def test_manufactured_solution_second_order():
    ratios = []
    errors = {}
    for level in (4, 5, 6):
        mesh = build_uniform_mesh(level)
        errors[level] = manufactured_linf_error(mesh, assemble_stiffness(mesh).factorize())
    for level in (4, 5):
        ratios.append(errors[level] / errors[level + 1])
    assert all(abs(r - 4.0) <= 0.6 for r in ratios)


def test_evaluate_reproduces_linear_functions():
    mesh = build_uniform_mesh(3)
    f = P1Function(mesh, mesh.nodes[:, 0].copy())
    values = evaluate(f, (0.3, 0.7))
    assert values.shape == (1,)
    assert values[0] == pytest.approx(0.3, abs=1e-14)


def test_evaluate_zero_function():
    mesh = build_uniform_mesh(2)
    f = P1Function(mesh, np.zeros(mesh.num_nodes))
    assert np.all(evaluate(f, [(0.123, 0.456), (0.5, 0.5)]) == 0.0)


def test_evaluate_lagrange_property(rng):
    mesh = build_uniform_mesh(2)
    f = P1Function(mesh, rng.normal(size=mesh.num_nodes))
    assert np.array_equal(evaluate(f, mesh.nodes), f.nodal_values)


def test_element_mean_constant_and_simple():
    mesh = build_uniform_mesh(1)
    const = P1Function(mesh, np.full(mesh.num_nodes, 2.5))
    assert pi0_project(const).values[0] == 2.5
    values = np.zeros(mesh.num_nodes)
    values[mesh.triangles[3]] = [0.0, 1.0, 2.0]
    assert pi0_project(P1Function(mesh, values)).values[3] == pytest.approx(1.0)


def test_element_mean_matches_quadrature(rng):
    mesh = build_uniform_mesh(2)
    f = P1Function(mesh, rng.normal(size=mesh.num_nodes))
    means = pi0_project(f).values
    for t in rng.integers(0, mesh.num_triangles, 5):
        integral = mesh.element_area * means[int(t)]
        assert integral == pytest.approx(quadrature_element_integral(f, int(t)), abs=1e-14)


def test_point_load_is_dual_to_evaluation(rng):
    # <c, E f> == <E^T c, f> for zero-boundary f, with E the evaluation operator
    mesh = build_uniform_mesh(3)
    points = rng.uniform(0.05, 0.95, (7, 2))
    points[:2] = [(0.5, 0.25), (0.375, 0.375)]  # a grid node and a cell diagonal
    c = rng.normal(size=7)
    values = np.where(mesh.interior_mask, rng.normal(size=mesh.num_nodes), 0.0)
    f = P1Function(mesh, values)
    load = assemble_point_load(mesh, points, c)
    assert c @ evaluate(f, points) == pytest.approx(load @ values[mesh.interior_mask], abs=1e-13)
    linear = P1Function(mesh, 2.0 * mesh.nodes[:, 0] - 3.0 * mesh.nodes[:, 1] + 0.5)
    exact = 2.0 * points[:, 0] - 3.0 * points[:, 1] + 0.5
    assert np.abs(evaluate(linear, points) - exact).max() <= 1e-14


def test_value_shape_validation():
    mesh = build_uniform_mesh(1)
    with pytest.raises(ValueError):
        P1Function(mesh, np.zeros(mesh.num_nodes + 1))
    with pytest.raises(ValueError):
        PwcControl(mesh, np.zeros(mesh.num_triangles - 1))


def test_solve_rejects_nonpositive_tolerance():
    mesh = build_uniform_mesh(1)
    system = assemble_stiffness(mesh)
    with pytest.raises(ValueError):
        solve_spd(system, np.zeros(1), tol=0.0)

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mopoisson import (
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
    gather_evaluate,
    gather_load_pwc,
    gather_pi0,
    gather_point_load,
    interior_mask,
    interior_nodes,
    manufactured_linf_error,
    mesh_nodes,
    mesh_triangles,
    quadrature_element_integral,
    quadrature_load_pwc,
)


@pytest.fixture(scope="module")
def level3():
    mesh = build_uniform_mesh(3)
    return mesh, assemble_stiffness(mesh)


def operator_matrix(system) -> np.ndarray:
    """The matrix the solver inverts: its stencil applied to every unit vector."""
    return np.column_stack([system.apply(e) for e in np.eye(system.num_unknowns)])


def test_level_one_matrix_is_scalar_four():
    matrix = operator_matrix(assemble_stiffness(build_uniform_mesh(1)))
    assert matrix.shape == (1, 1)
    assert matrix[0, 0] == pytest.approx(4.0)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_sparse_equals_dense_oracle(level):
    # P1 on this mesh family is the 5-point stencil at every level
    mesh = build_uniform_mesh(level)
    dense = dense_stiffness_interior(mesh)
    assert np.abs(operator_matrix(assemble_stiffness(mesh)) - dense).max() <= 1e-14


def test_level_two_matrix_is_five_point_stencil():
    matrix = operator_matrix(assemble_stiffness(build_uniform_mesh(2)))
    assert np.abs(matrix - five_point_laplacian(2)).max() <= 1e-14


@pytest.mark.parametrize("level", [1, 2, 3])
def test_matrix_signs_and_exact_symmetry(level):
    dense = operator_matrix(assemble_stiffness(build_uniform_mesh(level)))
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) > 0)
    off = dense - np.diag(np.diag(dense))
    assert np.all(off <= 0)


def test_full_rows_sum_to_zero_over_all_columns():
    # partition-of-unity: hat-function gradients sum to zero per triangle
    mesh = build_uniform_mesh(3)
    full = dense_stiffness_full(mesh)
    interior = interior_nodes(mesh)
    assert np.abs(full[interior, :].sum(axis=1)).max() <= 1e-13
    block = full[np.ix_(interior, interior)]
    assert np.abs(operator_matrix(assemble_stiffness(mesh)) - block).max() <= 1e-14


def test_zero_control_gives_zero_load():
    mesh = build_uniform_mesh(2)
    load = assemble_load_pwc(mesh, np.zeros(mesh.num_triangles))
    assert np.all(load == 0.0)


def test_unit_control_load_level_one():
    mesh = build_uniform_mesh(1)
    load = assemble_load_pwc(mesh, np.ones(mesh.num_triangles))
    assert load == pytest.approx([0.25])


def test_random_load_matches_quadrature_oracle(rng):
    mesh = build_uniform_mesh(2)
    u = rng.normal(size=mesh.num_triangles)
    load = assemble_load_pwc(mesh, u)
    assert np.abs(load - quadrature_load_pwc(mesh, u)).max() <= 1e-14


def test_load_rejects_mesh_mismatch():
    mesh = build_uniform_mesh(2)
    other = build_uniform_mesh(3)
    with pytest.raises(ValueError):
        assemble_load_pwc(mesh, np.zeros(other.num_triangles))


def test_point_load_zero_coefficients():
    mesh = build_uniform_mesh(2)
    load = assemble_point_load(mesh, [(0.3, 0.4), (0.6, 0.7)], [0.0, 0.0])
    assert np.all(load == 0.0)


def test_point_load_at_grid_node_is_scaled_indicator():
    mesh = build_uniform_mesh(2)
    load = assemble_point_load(mesh, [(0.5, 0.5)], [3.5])
    nodes = mesh_nodes(mesh)
    node = np.flatnonzero((nodes[:, 0] == 0.5) & (nodes[:, 1] == 0.5))[0]
    unknown = interior_nodes(mesh).tolist().index(node)
    expected = np.zeros(load.shape)
    expected[unknown] = 3.5
    assert np.array_equal(load, expected)


def test_point_load_at_centroid_splits_in_thirds():
    mesh = build_uniform_mesh(2)
    t = 2 * (1 * 4 + 1)  # interior cell, lower triangle
    centroid = mesh_nodes(mesh)[mesh_triangles(mesh)[t]].mean(axis=0)
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
    with pytest.raises(ValueError, match="differ in length"):
        assemble_point_load(mesh, [(0.5, 0.5), (0.25, 0.5)], [1.0])


def test_solve_zero_rhs_returns_zero_function(level3):
    mesh, system = level3
    y = solve_spd(system, np.zeros(system.num_unknowns))
    assert np.all(y == 0.0)


def test_solve_level_one_hand_value():
    mesh = build_uniform_mesh(1)
    system = assemble_stiffness(mesh)
    y = solve_spd(system, np.array([0.25]))
    assert y[interior_nodes(mesh)] == pytest.approx([0.0625])
    boundary = y[~interior_mask(mesh)]
    assert np.all(boundary == 0.0)


def test_solver_residual_contract(level3, rng):
    mesh, system = level3
    rhs = rng.normal(size=system.num_unknowns)
    x = solve_spd(system, rhs)[interior_nodes(mesh)]
    residual = np.linalg.norm(dense_stiffness_interior(mesh) @ x - rhs)
    assert residual <= 1e-12 * max(1.0, np.linalg.norm(rhs))


@pytest.mark.parametrize("level", [1, 2, 3, 5])
def test_dst_agrees_with_dense_solve(level, rng):
    mesh = build_uniform_mesh(level)
    system = assemble_stiffness(mesh)
    rhs = rng.normal(size=system.num_unknowns)
    y = solve_spd(system, rhs)
    dense = np.linalg.solve(dense_stiffness_interior(mesh), rhs)
    assert np.allclose(y[interior_nodes(mesh)], dense, atol=1e-11)


def test_solver_is_deterministic(level3, rng):
    mesh, system = level3
    rhs = rng.normal(size=system.num_unknowns)
    a = solve_spd(system, rhs)
    b = solve_spd(system, rhs)
    assert np.array_equal(a, b)


def test_concurrent_first_solves_match_serial(race, rng):
    # no lock: eight threads also race on the first factorize() of one fresh system
    mesh = build_uniform_mesh(6)
    rhss = rng.normal(size=(8, (2 ** 6 - 1) ** 2))
    reference = assemble_stiffness(mesh)
    serial = [solve_spd(reference, rhs) for rhs in rhss]
    system = assemble_stiffness(mesh)
    results = [None] * 8

    def work(i):
        results[i] = solve_spd(system, rhss[i])

    race(work)
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)


def test_package_import_leaves_out_scipy():
    import mopoisson

    src = Path(mopoisson.__file__).resolve().parents[1]
    # nor a thread pool (studies run serially), nor OpenSSL (only the study cache key hashes)
    code = (
        "import mopoisson, mopoisson.cli, sys; loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m.startswith('concurrent.futures') or m in ('hashlib', '_hashlib')]; assert not loaded, loaded"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_solver_failure_carries_residual(level3, rng, monkeypatch):
    import mopoisson.fem

    mesh, system = level3
    rhs = rng.normal(size=system.num_unknowns)
    monkeypatch.setattr(mopoisson.fem, "LINEAR_TOL", 1e-300)
    with pytest.raises(SolverError) as info:
        solve_spd(system, rhs)
    assert info.value.residual > 0.0


def test_solve_without_unknowns_returns_zero_function():
    mesh = build_uniform_mesh(0)
    y = solve_spd(assemble_stiffness(mesh), np.zeros(0))
    assert y.shape == (mesh.num_nodes,)
    assert np.all(y == 0.0)


def test_solver_rejects_bad_rhs_length(level3):
    mesh, system = level3
    with pytest.raises(ValueError):
        solve_spd(system, np.zeros(system.num_unknowns + 1))


def test_galerkin_residual_per_basis_function(rng):
    mesh = build_uniform_mesh(3)
    system = assemble_stiffness(mesh)
    u = rng.normal(size=mesh.num_triangles)
    rhs = assemble_load_pwc(mesh, u)
    y = solve_spd(system, rhs)
    # (grad y, grad phi_i) - (u, phi_i) via the dense-oracle full matrix
    full = dense_stiffness_full(mesh)
    lhs = full[interior_nodes(mesh), :] @ y
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
    values = evaluate(mesh, mesh_nodes(mesh)[:, 0], (0.3, 0.7))
    assert values.shape == (1,)
    assert values[0] == pytest.approx(0.3, abs=1e-14)


def test_evaluate_zero_function():
    mesh = build_uniform_mesh(2)
    assert np.all(evaluate(mesh, np.zeros(mesh.num_nodes), [(0.123, 0.456), (0.5, 0.5)]) == 0.0)


def test_evaluate_lagrange_property(rng):
    mesh = build_uniform_mesh(2)
    f = rng.normal(size=mesh.num_nodes)
    assert np.array_equal(evaluate(mesh, f, mesh_nodes(mesh)), f)


def test_element_mean_constant_and_simple():
    mesh = build_uniform_mesh(1)
    assert pi0_project(mesh, np.full(mesh.num_nodes, 2.5))[0] == 2.5
    values = np.zeros(mesh.num_nodes)
    values[mesh_triangles(mesh)[3]] = [0.0, 1.0, 2.0]
    assert pi0_project(mesh, values)[3] == pytest.approx(1.0)


def test_element_mean_matches_quadrature(rng):
    mesh = build_uniform_mesh(2)
    f = rng.normal(size=mesh.num_nodes)
    means = pi0_project(mesh, f)
    for t in rng.integers(0, mesh.num_triangles, 5):
        integral = mesh.element_area * means[int(t)]
        assert integral == pytest.approx(quadrature_element_integral(mesh, f, int(t)), abs=1e-14)


def test_point_load_is_dual_to_evaluation(rng):
    # <c, E f> == <E^T c, f> for zero-boundary f, with E the evaluation operator
    mesh = build_uniform_mesh(3)
    points = rng.uniform(0.05, 0.95, (7, 2))
    points[:2] = [(0.5, 0.25), (0.375, 0.375)]  # a grid node and a cell diagonal
    c = rng.normal(size=7)
    interior = interior_mask(mesh)
    values = np.where(interior, rng.normal(size=mesh.num_nodes), 0.0)
    load = assemble_point_load(mesh, points, c)
    assert c @ evaluate(mesh, values, points) == pytest.approx(load @ values[interior], abs=1e-13)
    nodes = mesh_nodes(mesh)
    linear = 2.0 * nodes[:, 0] - 3.0 * nodes[:, 1] + 0.5
    exact = 2.0 * points[:, 0] - 3.0 * points[:, 1] + 0.5
    assert np.abs(evaluate(mesh, linear, points) - exact).max() <= 1e-14


def test_value_shape_validation():
    mesh = build_uniform_mesh(1)
    for count in (mesh.num_nodes - 1, mesh.num_nodes + 1):
        with pytest.raises(ValueError, match="nodal value count"):
            pi0_project(mesh, np.zeros(count))
        with pytest.raises(ValueError, match="nodal value count"):
            evaluate(mesh, np.zeros(count), [(0.5, 0.5)])
    for shape in ((mesh.num_triangles - 1,), (mesh.num_triangles + 1,), (mesh.num_triangles, 1)):
        with pytest.raises(ValueError, match="does not match"):
            assemble_load_pwc(mesh, np.zeros(shape))


@pytest.mark.parametrize("level", range(7))
def test_grid_operators_match_the_explicit_arrays(level, rng):
    mesh = build_uniform_mesh(level)
    f = rng.normal(size=mesh.num_nodes)
    assert np.array_equal(pi0_project(mesh, f), gather_pi0(mesh, f))
    points = np.concatenate([rng.uniform(0.01, 0.99, (20, 2)), [(0.5, 0.5), (0.25, 0.75), (0.375, 0.125)]])
    coeffs = rng.normal(size=points.shape[0])
    assert np.abs(assemble_point_load(mesh, points, coeffs) - gather_point_load(mesh, points, coeffs)).max(
        initial=0.0) <= 1e-15
    assert np.abs(evaluate(mesh, f, points) - gather_evaluate(mesh, f, points)).max() <= 1e-15
    u = rng.normal(size=mesh.num_triangles)
    assert np.abs(assemble_load_pwc(mesh, u) - gather_load_pwc(mesh, u)).max(initial=0.0) <= 1e-15


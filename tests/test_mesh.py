import numpy as np
import pytest

from mopoisson import MAX_LEVEL, build_uniform_mesh
from mopoisson.mesh import locate_point, parent_elements
from oracles import brute_force_locate, parent_elements_closed_form


@pytest.mark.parametrize("level", range(9))
def test_counts_match_closed_forms(level):
    mesh = build_uniform_mesh(level)
    n = 2 ** level
    assert mesh.num_nodes == (n + 1) ** 2
    assert mesh.num_triangles == 2 * 4 ** level
    assert mesh.interior_mask.sum() == max(0, n - 1) ** 2


def test_smallest_grid():
    mesh = build_uniform_mesh(0)
    assert mesh.num_nodes == 4
    assert mesh.num_triangles == 2
    assert mesh.interior_mask.sum() == 0


def test_level_two_counts():
    mesh = build_uniform_mesh(2)
    assert (mesh.num_nodes, mesh.num_triangles, int(mesh.interior_mask.sum())) == (25, 32, 9)


@pytest.mark.parametrize("level", range(9))
def test_signed_areas_and_tiling(level):
    mesh = build_uniform_mesh(level)
    pts = mesh.nodes[mesh.triangles]
    d1 = pts[:, 1] - pts[:, 0]
    d2 = pts[:, 2] - pts[:, 0]
    signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert np.all(signed == mesh.element_area)
    assert abs(signed.sum() - 1.0) <= 1e-14


def test_interior_mask_is_boundary_complement():
    mesh = build_uniform_mesh(3)
    on_boundary = (
        (mesh.nodes[:, 0] == 0.0)
        | (mesh.nodes[:, 0] == 1.0)
        | (mesh.nodes[:, 1] == 0.0)
        | (mesh.nodes[:, 1] == 1.0)
    )
    assert np.array_equal(mesh.interior_mask, ~on_boundary)


def test_level_bounds_rejected():
    with pytest.raises(ValueError):
        build_uniform_mesh(-1)
    with pytest.raises(ValueError):
        build_uniform_mesh(MAX_LEVEL + 1)


def test_locate_grid_node_has_unit_bary():
    mesh = build_uniform_mesh(2)
    elements, bary = locate_point(mesh, (0.75, 0.25))
    assert elements.shape == (1,) and bary.shape == (1, 3)
    assert bary.max() == pytest.approx(1.0, abs=1e-15)
    assert bary.sum() == pytest.approx(1.0, abs=1e-15)


def test_locate_diagonal_tie_breaks_low():
    mesh = build_uniform_mesh(0)
    elements, bary = locate_point(mesh, (0.5, 0.5))
    assert elements[0] == 0
    assert bary.sum() == pytest.approx(1.0, abs=1e-15)


def test_locate_reconstructs_query_point():
    mesh = build_uniform_mesh(1)
    elements, bary = locate_point(mesh, (0.3, 0.1))
    rebuilt = bary[0] @ mesh.nodes[mesh.triangles[elements[0]]]
    assert np.allclose(rebuilt, [0.3, 0.1], atol=1e-12)


def test_locate_rejects_outside_points():
    mesh = build_uniform_mesh(2)
    for p in [(-0.1, 0.5), (0.5, 1.2), (1.0000001, 0.0), (np.nan, 0.5), (0.5, np.inf)]:
        with pytest.raises(ValueError):
            locate_point(mesh, p)
    with pytest.raises(ValueError):
        locate_point(mesh, [(0.5, 0.5), (0.5, -1e-9)])


@pytest.mark.parametrize("level", range(9))
def test_locate_identity_on_random_points(level, rng):
    mesh = build_uniform_mesh(level)
    points = rng.uniform(0.0, 1.0, (1000, 2))
    elements, bary = locate_point(mesh, points)
    rebuilt = np.einsum("pk,pkd->pd", bary, mesh.nodes[mesh.triangles[elements]])
    assert np.abs(rebuilt - points).max() <= 1e-12
    assert bary.min() >= 0.0
    assert np.abs(bary.sum(axis=1) - 1.0).max() <= 1e-14


def test_locate_matches_brute_force_on_edges_and_vertices(rng):
    shifts = 1e-13 * np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)])
    for level in range(5):
        mesh = build_uniform_mesh(level)
        n = mesh.cells_per_side
        line = rng.integers(0, n + 1, 12) / n
        free = rng.uniform(0.0, 1.0, 12)
        crafted = np.concatenate([
            rng.integers(0, n + 1, (12, 2)) / n,                  # grid nodes
            np.column_stack([line, free]),                        # vertical grid lines
            np.column_stack([free, line]),                        # horizontal grid lines
            (rng.integers(0, n, (12, 2)) + free[:, None]) / n,    # cell diagonals
            [(0.0, 0.0), (1.0, 1.0), (1.0, 0.3), (0.5, 0.5)],
        ])
        points = np.clip((crafted[:, None, :] + shifts).reshape(-1, 2), 0.0, 1.0)
        points = np.concatenate([points, rng.uniform(0.0, 1.0, (50, 2))])
        elements, _ = locate_point(mesh, points)
        assert elements.tolist() == [brute_force_locate(mesh, p)[0] for p in points]


def test_nested_map_identity():
    mesh = build_uniform_mesh(2)
    assert np.array_equal(parent_elements(mesh, mesh), np.arange(mesh.num_triangles))


def test_nested_map_children_tile_parent():
    coarse = build_uniform_mesh(1)
    fine = build_uniform_mesh(2)
    parents = parent_elements(fine, coarse)
    assert np.array_equal(np.bincount(parents), np.full(coarse.num_triangles, 4))
    child_area = fine.element_area * 4
    assert child_area == coarse.element_area * 1  # 4 children recover the parent area


def test_nested_map_centroids_land_in_parent():
    coarse = build_uniform_mesh(2)
    fine = build_uniform_mesh(4)
    centroids = fine.nodes[fine.triangles].mean(axis=1)
    elements, _ = locate_point(coarse, centroids)
    assert np.array_equal(elements, parent_elements(fine, coarse))


def test_nested_map_partitions_fine_mesh():
    coarse = build_uniform_mesh(1)
    fine = build_uniform_mesh(3)
    parents = parent_elements(fine, coarse)
    assert parents.shape == (fine.num_triangles,)
    assert 0 <= parents.min() and parents.max() < coarse.num_triangles
    assert np.array_equal(np.bincount(parents), np.full(coarse.num_triangles, 4 ** 2))


@pytest.mark.parametrize("fine_level", range(6))
def test_parent_map_is_memoized_and_read_only(fine_level):
    fine = build_uniform_mesh(fine_level)
    for coarse_level in range(fine_level + 1):
        coarse = build_uniform_mesh(coarse_level)
        parents = parent_elements(fine, coarse)
        assert parent_elements(build_uniform_mesh(fine_level), coarse) is parents
        assert not parents.flags.writeable
        assert parents.dtype == np.int32
        assert np.array_equal(parents, parent_elements_closed_form(fine_level, coarse_level))


def test_int32_holds_every_triangle_index_up_to_max_level():
    # arithmetic only: the level-14 map itself would take 2 GiB
    assert 2 * 4 ** MAX_LEVEL < 2 ** 31


def test_parent_map_under_concurrent_first_calls(race):
    import mopoisson.mesh

    mopoisson.mesh._parent_map.cache_clear()
    fine, coarse = build_uniform_mesh(7), build_uniform_mesh(3)
    results = [None] * 8

    def work(i):
        results[i] = parent_elements(fine, coarse)

    race(work)
    expected = parent_elements_closed_form(7, 3)
    for parents in results:
        assert np.array_equal(parents, expected)
        assert not parents.flags.writeable


def test_parent_elements_rejects_wrong_direction():
    with pytest.raises(ValueError):
        parent_elements(build_uniform_mesh(1), build_uniform_mesh(2))


def test_meshes_are_immutable():
    mesh = build_uniform_mesh(1)
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 7.0


def test_meshes_are_built_once_per_level():
    mesh = build_uniform_mesh(4)
    assert build_uniform_mesh(4) is mesh
    for arr in (mesh.nodes, mesh.triangles, mesh.interior_mask):
        assert not arr.flags.writeable

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mopoisson
from mopoisson import MAX_LEVEL, build_uniform_mesh, l2_error, prolong, write_control
from mopoisson.mesh import locate_point, mesh_of, triangle_nodes
from oracles import (
    brute_force_locate,
    interior_mask,
    mesh_nodes,
    mesh_triangles,
    parent_elements_closed_form,
)


@pytest.mark.parametrize("level", range(9))
def test_counts_match_closed_forms(level):
    mesh = build_uniform_mesh(level)
    n = 2 ** level
    assert mesh.num_nodes == (n + 1) ** 2
    assert mesh.num_triangles == 2 * 4 ** level
    assert interior_mask(mesh).sum() == max(0, n - 1) ** 2


@pytest.mark.parametrize("level", range(7))
def test_triangle_nodes_match_closed_form(level):
    mesh = build_uniform_mesh(level)
    triangles = mesh_triangles(mesh)
    assert np.array_equal(triangle_nodes(mesh, np.arange(mesh.num_triangles)), triangles)
    picked = np.array([mesh.num_triangles - 1, 0, mesh.num_triangles // 2])
    assert np.array_equal(triangle_nodes(mesh, picked), triangles[picked])


def test_smallest_grid():
    mesh = build_uniform_mesh(0)
    assert mesh.num_nodes == 4
    assert mesh.num_triangles == 2
    assert interior_mask(mesh).sum() == 0


def test_level_two_counts():
    mesh = build_uniform_mesh(2)
    assert (mesh.num_nodes, mesh.num_triangles, int(interior_mask(mesh).sum())) == (25, 32, 9)


@pytest.mark.parametrize("level", range(9))
def test_signed_areas_and_tiling(level):
    mesh = build_uniform_mesh(level)
    pts = mesh_nodes(mesh)[mesh_triangles(mesh)]
    d1 = pts[:, 1] - pts[:, 0]
    d2 = pts[:, 2] - pts[:, 0]
    signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert np.all(signed == mesh.element_area)
    assert abs(signed.sum() - 1.0) <= 1e-14


def test_interior_mask_is_boundary_complement():
    mesh = build_uniform_mesh(3)
    nodes = mesh_nodes(mesh)
    on_boundary = (
        (nodes[:, 0] == 0.0)
        | (nodes[:, 0] == 1.0)
        | (nodes[:, 1] == 0.0)
        | (nodes[:, 1] == 1.0)
    )
    assert np.array_equal(interior_mask(mesh), ~on_boundary)


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
    rebuilt = bary[0] @ mesh_nodes(mesh)[mesh_triangles(mesh)[elements[0]]]
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
    rebuilt = np.einsum("pk,pkd->pd", bary, mesh_nodes(mesh)[mesh_triangles(mesh)[elements]])
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


def ancestors(fine, coarse):
    """Coarse ancestor of every fine triangle, read off the prolonged triangle indices."""
    return prolong(np.arange(coarse.num_triangles, dtype=float), fine).astype(np.int64)


def test_nested_map_identity():
    mesh = build_uniform_mesh(2)
    assert np.array_equal(ancestors(mesh, mesh), np.arange(mesh.num_triangles))


def test_nested_map_children_tile_parent():
    coarse = build_uniform_mesh(1)
    fine = build_uniform_mesh(2)
    parents = ancestors(fine, coarse)
    assert np.array_equal(np.bincount(parents), np.full(coarse.num_triangles, 4))
    child_area = fine.element_area * 4
    assert child_area == coarse.element_area * 1  # 4 children recover the parent area


def test_nested_map_centroids_land_in_parent():
    coarse = build_uniform_mesh(2)
    fine = build_uniform_mesh(4)
    centroids = mesh_nodes(fine)[mesh_triangles(fine)].mean(axis=1)
    elements, _ = locate_point(coarse, centroids)
    assert np.array_equal(elements, ancestors(fine, coarse))
    assert np.array_equal(elements, parent_elements_closed_form(4, 2))


def test_nested_map_partitions_fine_mesh():
    coarse = build_uniform_mesh(1)
    fine = build_uniform_mesh(3)
    parents = ancestors(fine, coarse)
    assert parents.shape == (fine.num_triangles,)
    assert 0 <= parents.min() and parents.max() < coarse.num_triangles
    assert np.array_equal(np.bincount(parents), np.full(coarse.num_triangles, 4 ** 2))


@pytest.mark.parametrize("fine_level", range(8))
def test_prolong_equals_the_oracle_gather(fine_level, rng):
    fine = build_uniform_mesh(fine_level)
    ref = rng.normal(size=fine.num_triangles)
    for coarse_level in range(fine_level + 1):
        u = rng.normal(size=2 * 4 ** coarse_level)
        gathered = u.take(parent_elements_closed_form(fine_level, coarse_level))
        assert np.array_equal(prolong(u, fine), gathered)
        # l2_error's own order: a fresh prolongation, an in-place subtract, one dot
        gathered -= ref
        assert l2_error(u, ref) == math.sqrt(fine.element_area * float(gathered @ gathered))


CONTROL_LENGTHS = [2 * 4 ** level for level in range(MAX_LEVEL + 1)]


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(st.integers(0, CONTROL_LENGTHS[-1] + 1), st.sampled_from(CONTROL_LENGTHS), st.sampled_from(
        [n + d for n in CONTROL_LENGTHS for d in (-1, 1)] + [4 * CONTROL_LENGTHS[-1]])),
    st.sampled_from(["1-D", "2-D", "0-D"]),
)
def test_mesh_of_accepts_exactly_the_control_lengths(n, rank):
    """Zero-stride views up to one past the finest control, and the next level's length: nothing is allocated."""
    values = {"1-D": np.broadcast_to(0.0, n), "2-D": np.broadcast_to(0.0, (1, n)), "0-D": np.float64(n)}[rank]
    tracemalloc.start()
    try:
        if rank == "1-D" and n in CONTROL_LENGTHS:
            assert mesh_of(values) is build_uniform_mesh(CONTROL_LENGTHS.index(n))
        else:
            with pytest.raises(ValueError):
                mesh_of(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_meshes_are_immutable():
    mesh = build_uniform_mesh(1)
    for name, value in (("level", 3), ("element_area", 7.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mesh, name, value)
    assert (mesh.level, mesh.element_area) == (1, 0.125)


def test_meshes_are_built_once_per_level():
    mesh = build_uniform_mesh(4)
    assert build_uniform_mesh(4) is mesh
    # the level is the whole mesh: no array is stored
    assert [f.name for f in dataclasses.fields(mesh)] == ["level", "element_area"]
    assert (mesh.level, mesh.element_area) == (4, 2.0 ** -9)


# Peak-RSS growth allowed over the import baseline.  Reading the L9 file maps
# and copies 4 MiB (9 MiB measured); explicit node and triangle arrays of the
# two meshes measured 101 MiB.
_MESH_AND_READ_MARGIN_MIB = 32


def test_fine_mesh_and_control_read_stay_small(tmp_path):
    path = tmp_path / "u9.ctrl"
    write_control(np.zeros(2 * 4 ** 9), path)
    code = (
        "import resource, sys\n"
        "from mopoisson import build_uniform_mesh, read_control\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "build_uniform_mesh(10)\n"
        "assert read_control(sys.argv[1], 9).shape == (2 * 4 ** 9,)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) / 1024)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mopoisson.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= _MESH_AND_READ_MARGIN_MIB

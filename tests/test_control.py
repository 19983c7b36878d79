import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopoisson import (
    BoxBounds,
    PwcControl,
    build_uniform_mesh,
    clip_to_box,
    l2_error,
    l2_inner,
    l2_norm,
    pi0_project,
    prolong,
    read_control,
    write_control,
)
from mopoisson.fem import P1Function
from oracles import mesh_nodes, mesh_triangles

BENCH_BOX = BoxBounds(-7.0, 15.0)


def control(mesh, values):
    return PwcControl(mesh, np.asarray(values, dtype=float))


def test_bounds_validation():
    with pytest.raises(ValueError):
        BoxBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        BoxBounds(np.array([0.0, 1.0]), 2.0)


def test_clip_examples():
    mesh = build_uniform_mesh(0)
    assert np.array_equal(clip_to_box(control(mesh, [3.0, -2.0]), BENCH_BOX).values, [3.0, -2.0])
    assert clip_to_box(control(mesh, [20.0, 0.0]), BENCH_BOX).values[0] == 15.0
    assert clip_to_box(control(mesh, [-7.5, 0.0]), BENCH_BOX).values[0] == -7.0


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=2))
def test_clip_is_idempotent(values):
    mesh = build_uniform_mesh(0)
    once = clip_to_box(control(mesh, values), BENCH_BOX)
    twice = clip_to_box(once, BENCH_BOX)
    assert np.array_equal(once.values, twice.values)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(-50, 50), min_size=8, max_size=8),
    st.lists(st.floats(-50, 50), min_size=8, max_size=8),
)
def test_clip_is_nonexpansive(u_vals, v_vals):
    mesh = build_uniform_mesh(1)
    u, v = control(mesh, u_vals), control(mesh, v_vals)
    cu, cv = clip_to_box(u, BENCH_BOX), clip_to_box(v, BENCH_BOX)
    diff_clipped = control(mesh, cu.values - cv.values)
    diff = control(mesh, u.values - v.values)
    assert l2_norm(diff_clipped) <= l2_norm(diff) + 1e-12


def test_inner_product_of_constants():
    mesh = build_uniform_mesh(3)
    ones = control(mesh, np.ones(mesh.num_triangles))
    assert l2_inner(ones, ones) == pytest.approx(1.0, abs=1e-14)
    u = control(mesh, np.full(mesh.num_triangles, 2.0))
    v = control(mesh, np.full(mesh.num_triangles, 3.0))
    assert l2_inner(u, v) == pytest.approx(6.0, abs=1e-13)


def test_inner_matches_direct_summation(rng):
    mesh = build_uniform_mesh(2)
    u = control(mesh, rng.normal(size=mesh.num_triangles))
    v = control(mesh, rng.normal(size=mesh.num_triangles))
    direct = sum(mesh.element_area * a * b for a, b in zip(u.values, v.values))
    assert l2_inner(u, v) == pytest.approx(direct, abs=1e-14)


def test_inner_rejects_mesh_mismatch():
    u = control(build_uniform_mesh(1), np.zeros(8))
    v = control(build_uniform_mesh(2), np.zeros(32))
    with pytest.raises(ValueError):
        l2_inner(u, v)


def test_norm_examples(rng):
    mesh = build_uniform_mesh(2)
    assert l2_norm(control(mesh, np.zeros(mesh.num_triangles))) == 0.0
    assert l2_norm(control(mesh, np.full(mesh.num_triangles, -4.0))) == pytest.approx(4.0)
    for _ in range(10):
        u = control(mesh, rng.normal(size=mesh.num_triangles))
        v = control(mesh, rng.normal(size=mesh.num_triangles))
        s = control(mesh, u.values + v.values)
        assert l2_norm(s) <= l2_norm(u) + l2_norm(v) + 1e-12


def test_prolong_identity_and_constant():
    mesh = build_uniform_mesh(2)
    u = control(mesh, np.arange(mesh.num_triangles, dtype=float))
    same = prolong(u, mesh)
    assert np.array_equal(same.values, u.values)
    fine = build_uniform_mesh(4)
    c = prolong(control(mesh, np.full(mesh.num_triangles, 3.25)), fine)
    assert np.all(c.values == 3.25)
    assert l2_norm(c) == pytest.approx(3.25, abs=1e-14)


def test_prolong_is_isometry(rng):
    coarse = build_uniform_mesh(2)
    fine = build_uniform_mesh(4)
    u = control(coarse, rng.normal(size=coarse.num_triangles))
    assert l2_norm(prolong(u, fine)) == pytest.approx(l2_norm(u), abs=1e-14)
    assert l2_error(u, prolong(u, fine)) == 0.0


def test_prolong_rejects_coarsening():
    fine = build_uniform_mesh(3)
    u = control(fine, np.zeros(fine.num_triangles))
    with pytest.raises(ValueError):
        prolong(u, build_uniform_mesh(2))


def test_l2_error_trivial_cases():
    mesh2 = build_uniform_mesh(2)
    mesh3 = build_uniform_mesh(3)
    u = control(mesh2, np.zeros(mesh2.num_triangles))
    ref = control(mesh3, np.ones(mesh3.num_triangles))
    assert l2_error(u, ref) == pytest.approx(1.0, abs=1e-14)
    same = control(mesh2, np.arange(mesh2.num_triangles, dtype=float))
    assert l2_error(same, prolong(same, mesh3)) == 0.0


def test_l2_error_single_element_perturbation(rng):
    coarse = build_uniform_mesh(2)
    fine = build_uniform_mesh(3)
    u = control(coarse, rng.normal(size=coarse.num_triangles))
    ref_values = prolong(u, fine).values.copy()
    delta = 0.7
    ref_values[17] += delta
    err = l2_error(u, control(fine, ref_values))
    assert err == pytest.approx(delta * np.sqrt(fine.element_area), abs=1e-14)


def test_l2_error_allocates_one_fine_vector_and_keeps_nothing(rng):
    u = control(build_uniform_mesh(2), rng.normal(size=32))
    ref = control(build_uniform_mesh(9), rng.normal(size=2 * 4 ** 9))
    for call in ("first", "repeated"):
        tracemalloc.start()
        try:
            l2_error(u, ref)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * ref.values.nbytes, call
        assert retained <= 1e-3 * ref.values.nbytes, call


def test_pi0_constant_and_coordinate():
    mesh = build_uniform_mesh(2)
    const = pi0_project(P1Function(mesh, np.full(mesh.num_nodes, 1.5)))
    assert np.all(const.values == 1.5)
    nodes = mesh_nodes(mesh)
    fx = pi0_project(P1Function(mesh, nodes[:, 0].copy()))
    centroids = nodes[mesh_triangles(mesh)].mean(axis=1)
    assert np.allclose(fx.values, centroids[:, 0], atol=1e-15)


def test_pi0_orthogonality(rng):
    mesh = build_uniform_mesh(2)
    f = P1Function(mesh, rng.normal(size=mesh.num_nodes))
    means = pi0_project(f)
    triangles = mesh_triangles(mesh)
    for _ in range(10):
        w = control(mesh, rng.normal(size=mesh.num_triangles))
        # (f - pi0 f, w) with the exact mixed P1 x P0 integral per element
        residual = sum(
            w.values[t]
            * (
                mesh.element_area * f.nodal_values[triangles[t]].mean()
                - mesh.element_area * means.values[t]
            )
            for t in range(mesh.num_triangles)
        )
        assert abs(residual) <= 1e-13


def test_serialization_round_trip(tmp_path, rng):
    mesh = build_uniform_mesh(3)
    u = control(mesh, rng.normal(size=mesh.num_triangles))
    path = tmp_path / "u.ctrl"
    write_control(u, path)
    back = read_control(path)
    assert back.mesh.level == 3
    assert np.array_equal(back.values, u.values)


def npy_bytes(array, **save_kwargs) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, **save_kwargs)
    return buffer.getvalue()


def npy_header(count: int) -> bytes:
    """A 1-D ``<f8`` header claiming ``count`` values, without the values."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": "<f8", "fortran_order": False, "shape": (count,)}
    )
    return buffer.getvalue()


def test_read_control_rejects_malformed(tmp_path):
    complete = npy_bytes(np.arange(8.0))
    cases = {
        "empty": b"",
        "truncated": complete[: len(complete) - 8],
        "trailing": complete + b"\0" * 8,
        "text": b"level=1\n" + b"0.5\n" * 8,
        "pickled": npy_bytes(np.array([0.5, None], dtype=object), allow_pickle=True),
        "float32": npy_bytes(np.zeros(8, dtype=np.float32)),
        "2d": npy_bytes(np.zeros((2, 4))),
        "count": npy_bytes(np.zeros(6)),
        "nan": npy_bytes(np.array([0.5, np.nan])),
        "inf": npy_bytes(np.array([np.inf, 0.5])),
        "-inf": npy_bytes(np.array([0.5, -np.inf])),
    }
    for name, data in cases.items():
        path = tmp_path / f"bad-{name}.ctrl"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"bad-{name}.ctrl"):
            read_control(path)


def test_read_control_checks_the_expected_level(tmp_path, monkeypatch):
    import mopoisson.control

    u = control(build_uniform_mesh(2), np.arange(32.0))
    path = tmp_path / "u.ctrl"
    write_control(u, path)
    assert np.array_equal(read_control(path, 2).values, u.values)
    monkeypatch.setattr(mopoisson.control, "build_uniform_mesh", lambda level: pytest.fail("mesh built"))
    for level in (1, 3):
        with pytest.raises(ValueError, match=f"a level-2 control, expected level {level}"):
            read_control(path, level)


def test_control_file_bytes(tmp_path):
    mesh = build_uniform_mesh(1)
    values = [-0.0, 5e-324, 1.0 / 3.0, 0.1, -2.5, 1e300, 1.0, 0.0]
    path = tmp_path / "u.ctrl"
    write_control(control(mesh, values), path)
    assert path.read_bytes() == npy_header(8) + np.array(values, "<f8").tobytes()
    assert path.stat().st_size == 128 + 8 * len(values)
    back = read_control(path).values
    assert back.tobytes() == np.array(values).tobytes()  # also keeps the sign of -0.0


@pytest.mark.parametrize(
    "count",
    [2 * 4 ** 14, 2 * 4 ** 15, 2 * 4 ** 99, 2 * 4 ** 3 + 2],
    ids=["level=14", "level=15", "level=99", "non-power"],
)
def test_read_control_checks_count_before_building_mesh(tmp_path, monkeypatch, count):
    """A header over a 16-byte body; no array of the claimed size is allocated."""
    import mopoisson.control

    def refuse(level):
        raise AssertionError(f"mesh of level {level} built")

    monkeypatch.setattr(mopoisson.control, "build_uniform_mesh", refuse)
    path = tmp_path / "corrupt.ctrl"
    path.write_bytes(npy_header(count) + b"\0" * 16)
    with pytest.raises(ValueError, match="corrupt.ctrl"):
        read_control(path)

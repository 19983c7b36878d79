import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopoisson import BoxBounds, read_control, write_control
from mopoisson.control import l2_error, pi0_project, prolong
from mopoisson.mesh import MAX_LEVEL, build_uniform_mesh
from oracles import l2_inner, l2_norm, mesh_nodes, mesh_triangles


def test_bounds_validation():
    with pytest.raises(ValueError):
        BoxBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        BoxBounds(np.array([0.0, 1.0]), 2.0)


# The oracles' L2 geometry takes |T| as one over the control's length.
def test_inner_product_of_constants():
    mesh = build_uniform_mesh(3)
    ones = np.ones(mesh.num_triangles)
    assert l2_inner(ones, ones) == pytest.approx(1.0, abs=1e-14)
    u = np.full(mesh.num_triangles, 2.0)
    v = np.full(mesh.num_triangles, 3.0)
    assert l2_inner(u, v) == pytest.approx(6.0, abs=1e-13)


def test_inner_matches_direct_summation(rng):
    mesh = build_uniform_mesh(2)
    u = rng.normal(size=mesh.num_triangles)
    v = rng.normal(size=mesh.num_triangles)
    direct = sum(mesh.element_area * a * b for a, b in zip(u, v))
    assert l2_inner(u, v) == pytest.approx(direct, abs=1e-14)


def test_inner_rejects_mesh_mismatch():
    with pytest.raises(ValueError):
        l2_inner(np.zeros(8), np.zeros(32))


def test_norm_examples(rng):
    mesh = build_uniform_mesh(2)
    assert l2_norm(np.zeros(mesh.num_triangles)) == 0.0
    assert l2_norm(np.full(mesh.num_triangles, -4.0)) == pytest.approx(4.0)
    for _ in range(10):
        u = rng.normal(size=mesh.num_triangles)
        v = rng.normal(size=mesh.num_triangles)
        assert l2_norm(u + v) <= l2_norm(u) + l2_norm(v) + 1e-12


def test_prolong_identity_and_constant():
    mesh = build_uniform_mesh(2)
    u = np.arange(mesh.num_triangles, dtype=float)
    same = prolong(u, mesh.level)
    assert np.array_equal(same, u)
    fine = build_uniform_mesh(4)
    c = prolong(np.full(mesh.num_triangles, 3.25), fine.level)
    assert c.shape == (fine.num_triangles,)
    assert np.all(c == 3.25)
    assert l2_norm(c) == pytest.approx(3.25, abs=1e-14)


def test_prolong_is_isometry(rng):
    coarse = build_uniform_mesh(2)
    fine = build_uniform_mesh(4)
    u = rng.normal(size=coarse.num_triangles)
    assert l2_norm(prolong(u, fine.level)) == pytest.approx(l2_norm(u), abs=1e-14)
    assert l2_error(u, prolong(u, fine.level)) == 0.0


def test_prolong_rejects_coarsening():
    fine = build_uniform_mesh(3)
    with pytest.raises(ValueError):
        prolong(np.zeros(fine.num_triangles), 2)
    with pytest.raises(ValueError):  # no mesh has it: refused before any allocation
        prolong(np.zeros(fine.num_triangles), MAX_LEVEL + 1)


def test_l2_error_trivial_cases():
    mesh2 = build_uniform_mesh(2)
    mesh3 = build_uniform_mesh(3)
    u = np.zeros(mesh2.num_triangles)
    ref = np.ones(mesh3.num_triangles)
    assert l2_error(u, ref) == pytest.approx(1.0, abs=1e-14)
    same = np.arange(mesh2.num_triangles, dtype=float)
    assert l2_error(same, prolong(same, mesh3.level)) == 0.0


def test_l2_error_single_element_perturbation(rng):
    coarse = build_uniform_mesh(2)
    fine = build_uniform_mesh(3)
    u = rng.normal(size=coarse.num_triangles)
    ref = prolong(u, fine.level)
    delta = 0.7
    ref[17] += delta
    err = l2_error(u, ref)
    assert err == pytest.approx(delta * np.sqrt(fine.element_area), abs=1e-14)


def test_l2_error_allocates_one_fine_vector_and_keeps_nothing(rng):
    u = rng.normal(size=32)
    ref = rng.normal(size=2 * 4 ** 9)
    for call in ("first", "repeated"):
        tracemalloc.start()
        try:
            l2_error(u, ref)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * ref.nbytes, call
        assert retained <= 1e-3 * ref.nbytes, call


def test_pi0_constant_and_coordinate():
    mesh = build_uniform_mesh(2)
    const = pi0_project(mesh, np.full(mesh.num_nodes, 1.5))
    assert np.all(const == 1.5)
    nodes = mesh_nodes(mesh)
    fx = pi0_project(mesh, nodes[:, 0])
    centroids = nodes[mesh_triangles(mesh)].mean(axis=1)
    assert np.allclose(fx, centroids[:, 0], atol=1e-15)


def test_pi0_orthogonality(rng):
    mesh = build_uniform_mesh(2)
    f = rng.normal(size=mesh.num_nodes)
    means = pi0_project(mesh, f)
    triangles = mesh_triangles(mesh)
    for _ in range(10):
        w = rng.normal(size=mesh.num_triangles)
        # (f - pi0 f, w) with the exact mixed P1 x P0 integral per element
        residual = sum(
            w[t]
            * (
                mesh.element_area * f[triangles[t]].mean()
                - mesh.element_area * means[t]
            )
            for t in range(mesh.num_triangles)
        )
        assert abs(residual) <= 1e-13


def test_serialization_round_trip(tmp_path, rng):
    mesh = build_uniform_mesh(3)
    u = rng.normal(size=mesh.num_triangles)
    path = tmp_path / "u.ctrl"
    write_control(u, path)
    back = read_control(path, 3)
    assert back.dtype == np.float64 and back.flags.c_contiguous and back.flags.writeable
    assert np.array_equal(back, u)


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


def npy_with_header(header: str, body: bytes = b"", version: int = 1) -> bytes:
    """An ``.npy`` file whose header dictionary is the literal text ``header``."""
    text = header.encode("latin1")
    text += b" " * (-(len(text) + 11) % 64) + b"\n"
    return b"\x93NUMPY" + bytes([version, 0]) + len(text).to_bytes(2 if version == 1 else 4, "little") + text + body


def header_text(descr="'<f8'", shape="(8,)") -> str:
    return f"{{'descr': {descr}, 'fortran_order': False, 'shape': {shape}, }}"


def test_read_control_rejects_malformed(tmp_path):
    complete = npy_bytes(np.arange(8.0))
    version2 = io.BytesIO()
    np.lib.format.write_array(version2, np.arange(8.0), version=(2, 0))
    body = np.arange(8.0).tobytes()
    cases = {
        "big-endian": npy_bytes(np.arange(8.0).astype(">f8")),
        "negative-shape": npy_with_header(header_text(shape="(-8,)"), body),
        "huge-shape": npy_with_header(header_text(shape=f"({2 ** 70},)"), body),
        "void-negative-shape": npy_with_header(header_text(descr="'V0'", shape="(-1,)")),  # memmap divides by 0
        "unbalanced": npy_with_header(header_text(shape="(((8,)"), body),  # tokenize.TokenError in numpy
        "descr-syntax": npy_with_header(header_text(descr="'<f8,('"), body),  # SyntaxError in numpy
        "mixed-keys": npy_with_header("{'descr': '<f8', 1: 2}", body),  # TypeError in numpy
        "python2-long": npy_with_header(header_text(shape="(8L,)"), body),  # numpy warns, then reads it
        "version-2": version2.getvalue(),
        "zip": b"PK\x03\x04" + complete,
        "trailing-byte": complete + b"\0",
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
        level = 0 if name.endswith(("nan", "inf")) else 1  # the two-value cases hold a level-0 count
        with pytest.raises(ValueError, match=f"bad-{name}.ctrl"):
            read_control(path, level)
    good = tmp_path / "good.ctrl"
    good.write_bytes(complete)
    for level, message in [(np.float64(1.0), "not an integer"), (2.5, "not an integer"), (-1, "nonnegative"),
                           (15, "exceeds the supported cap")]:
        with pytest.raises(ValueError, match=message):
            read_control(good, level)


def test_python2_header_is_rejected_under_default_warning_filters(tmp_path):
    """numpy warns about a Python 2 header, then reads it; that must not make it a control."""
    path = tmp_path / "python2.ctrl"
    path.write_bytes(npy_with_header(header_text(shape="(8L,)"), np.arange(8.0).tobytes()))
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with pytest.raises(ValueError, match="python2.ctrl: not a control file"):
            read_control(path, 1)


HEADER_ALPHABET = b" (){}[],:'-0123456789<>|fiOVLTrueFalsdcph"


@st.composite
def mutated_control_files(draw) -> bytes:
    """A level-1 control file with its 128-byte header mutated up to three times, or truncated."""
    data = bytearray(npy_bytes(np.linspace(-1.0, 1.0, 8)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, min(127, len(data))))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        if kind == "replace" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[at:at] = draw(st.lists(st.sampled_from(HEADER_ALPHABET), min_size=1, max_size=4))
        elif kind == "delete":
            del data[at:at + draw(st.integers(1, 4))]
        else:
            del data[draw(st.integers(0, len(data))):]
    return bytes(data)


@settings(deadline=None, max_examples=300)
@given(mutated_control_files())
def test_read_control_raises_only_value_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.ctrl"
    path.write_bytes(data)
    try:
        values = read_control(path, 1)
    except ValueError as exc:
        assert "mutated.ctrl" in str(exc)
    else:  # a mutation that leaves a valid 1-D <f8 header of 8 values
        assert values.shape == (8,) and np.all(np.isfinite(values))


def test_read_control_checks_the_expected_level(tmp_path):
    u = np.arange(32.0)
    path = tmp_path / "u.ctrl"
    write_control(u, path)
    assert np.array_equal(read_control(path, 2), u)
    for level in (1, 3):
        with pytest.raises(ValueError, match=f"32 values, not the {2 * 4 ** level} of a level-{level} control"):
            read_control(path, level)


def test_control_file_bytes(tmp_path):
    mesh = build_uniform_mesh(1)
    values = [-0.0, 5e-324, 1.0 / 3.0, 0.1, -2.5, 1e300, 1.0, 0.0]
    path = tmp_path / "u.ctrl"
    write_control(np.array(values), path)
    assert path.read_bytes() == npy_header(8) + np.array(values, "<f8").tobytes()
    assert path.stat().st_size == 128 + 8 * len(values)
    back = read_control(path, 1)
    assert back.tobytes() == np.array(values).tobytes()  # also keeps the sign of -0.0


@pytest.mark.parametrize(
    "count",
    [2 * 4 ** 14, 2 * 4 ** 15, 2 * 4 ** 99, 2 * 4 ** 3 + 2],
    ids=["level=14", "level=15", "level=99", "non-power"],
)
def test_read_control_checks_count_before_building_mesh(tmp_path, count):
    """A header over a 16-byte body; no array of the claimed size is allocated."""
    path = tmp_path / "corrupt.ctrl"
    path.write_bytes(npy_header(count) + b"\0" * 16)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="corrupt.ctrl"):
            read_control(path, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20

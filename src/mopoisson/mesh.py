"""Uniform nested triangulations of the unit square (0,1)^2.

The meshes form a single family: at level ``L`` the square is divided into
``2**L`` cells per side and every cell is split along the diagonal running
from its lower-left to its upper-right corner.  Meshes of different levels
are exactly nested, which lets coarse-against-fine control errors be
computed without any cross-mesh quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_LEVEL",
    "TriMesh",
    "PointLocation",
    "build_uniform_mesh",
    "locate_point",
    "parent_elements",
]

# 2 * 4**14 triangles is ~5.4e8; one level further the index arithmetic no
# longer fits the 32-bit address space used by common sparse backends.
MAX_LEVEL = 14

# Absolute slack on barycentric coordinates when deciding containment.
_BARY_TOL = 1e-12


@dataclass(frozen=True)
class TriMesh:
    """Uniform triangulation of the closed unit square at a refinement level.

    Attributes
    ----------
    level : int
        Refinement level; the mesh size is ``h = 2**-level`` and the grid
        has ``2**level`` cells per side.
    nodes : ndarray, shape (num_nodes, 2)
        Vertex coordinates; node ``iy*(n+1) + ix`` sits at ``(ix*h, iy*h)``.
        Coordinates are computed as ``i / 2**level`` so nodes are
        bit-identical across levels.
    triangles : ndarray, shape (num_triangles, 3)
        Counter-clockwise vertex indices.  Cell ``(ix, iy)`` owns triangles
        ``2*c`` (below its diagonal) and ``2*c + 1`` (above it) where
        ``c = iy*n + ix``.
    interior_mask : ndarray of bool, shape (num_nodes,)
        False exactly for nodes with a coordinate in {0, 1}.
    element_area : float
        Common triangle area ``h**2 / 2``.

    Instances are immutable after construction (arrays are read-only) and
    safe for concurrent read access.
    """

    level: int
    nodes: np.ndarray
    triangles: np.ndarray
    interior_mask: np.ndarray
    element_area: float

    @property
    def h(self) -> float:
        return 2.0 ** -self.level

    @property
    def cells_per_side(self) -> int:
        return 2 ** self.level

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass(frozen=True)
class PointLocation:
    """A containing triangle together with exact barycentric coordinates."""

    element: int
    bary: np.ndarray


def build_uniform_mesh(level: int) -> TriMesh:
    """Build the level-``level`` mesh of the family.

    Each grid square ``[ih,(i+1)h] x [jh,(j+1)h]`` is split by the diagonal
    from ``(ih, jh)`` to ``((i+1)h, (j+1)h)``.
    """
    level = int(level)
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > MAX_LEVEL:
        raise ValueError(f"level {level} exceeds the supported cap {MAX_LEVEL}")

    n = 2 ** level
    side = np.arange(n + 1, dtype=np.float64) / n
    xs, ys = np.meshgrid(side, side)
    nodes = np.column_stack([xs.ravel(), ys.ravel()])

    ix, iy = np.meshgrid(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64))
    v00 = (iy * (n + 1) + ix).ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1

    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([v00, v10, v11])
    triangles[1::2] = np.column_stack([v00, v11, v01])

    gx, gy = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    interior = ((gx > 0) & (gx < n) & (gy > 0) & (gy < n)).ravel()

    for arr in (nodes, triangles, interior):
        arr.setflags(write=False)

    return TriMesh(
        level=level,
        nodes=nodes,
        triangles=triangles,
        interior_mask=interior,
        element_area=2.0 ** (-2 * level - 1),
    )


def _bary_in_triangle(mesh: TriMesh, t: int, x: float, y: float) -> np.ndarray:
    pa, pb, pc = mesh.nodes[mesh.triangles[t]]
    area2 = (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])
    w0 = ((pb[0] - x) * (pc[1] - y) - (pb[1] - y) * (pc[0] - x)) / area2
    w1 = ((pc[0] - x) * (pa[1] - y) - (pc[1] - y) * (pa[0] - x)) / area2
    w2 = ((pa[0] - x) * (pb[1] - y) - (pa[1] - y) * (pb[0] - x)) / area2
    return np.array([w0, w1, w2])


def locate_point(mesh: TriMesh, p) -> PointLocation:
    """Find the triangle containing ``p`` and its barycentric coordinates.

    Points on shared edges or vertices resolve to the lowest-index
    containing triangle, so the result is deterministic.
    """
    x, y = float(p[0]), float(p[1])
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"point ({x}, {y}) lies outside the unit square")

    n = mesh.cells_per_side
    sx, sy = x * n, y * n
    ix0 = min(int(sx), n - 1)
    iy0 = min(int(sy), n - 1)
    # A point (numerically) on a grid line is also contained in the
    # neighbouring cell, whose triangles carry lower indices.
    cand_ix = [ix0 - 1, ix0] if (ix0 >= 1 and sx - ix0 <= _BARY_TOL * n) else [ix0]
    cand_iy = [iy0 - 1, iy0] if (iy0 >= 1 and sy - iy0 <= _BARY_TOL * n) else [iy0]

    for iy in cand_iy:
        for ix in cand_ix:
            base = 2 * (iy * n + ix)
            for t in (base, base + 1):
                bary = _bary_in_triangle(mesh, t, x, y)
                if bary.min() >= -_BARY_TOL:
                    bary = np.clip(bary, 0.0, 1.0)
                    bary /= bary.sum()
                    return PointLocation(element=t, bary=bary)
    raise RuntimeError(f"point location failed for ({x}, {y})")  # pragma: no cover


def parent_elements(fine: TriMesh, coarse: TriMesh) -> np.ndarray:
    """Index of the coarse ancestor of every fine triangle.

    Pure index arithmetic on the nested family; no geometry is evaluated.
    """
    if coarse.level > fine.level:
        raise ValueError("coarse mesh must not be finer than the fine mesh")
    delta = fine.level - coarse.level
    nf = fine.cells_per_side
    nc = coarse.cells_per_side

    t = np.arange(fine.num_triangles, dtype=np.int64)
    cell = t >> 1
    kind = t & 1
    ixf = cell % nf
    iyf = cell // nf
    ixc = ixf >> delta
    iyc = iyf >> delta
    # Position of the fine cell inside its coarse cell decides the side of
    # the coarse diagonal; on the diagonal the fine split continues it.
    a = ixf - (ixc << delta)
    b = iyf - (iyc << delta)
    coarse_kind = np.where(b < a, 0, np.where(b > a, 1, kind))
    return 2 * (iyc * nc + ixc) + coarse_kind


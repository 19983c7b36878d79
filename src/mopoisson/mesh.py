"""Uniform nested triangulations of the unit square (0,1)^2.

The meshes form a single family: at level ``L`` the square is divided into
``2**L`` cells per side and every cell is split along the diagonal running
from its lower-left to its upper-right corner.  Meshes of different levels
are exactly nested, which lets coarse-against-fine control errors be
computed without any cross-mesh quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_LEVEL",
    "TriMesh",
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
    def cells_per_side(self) -> int:
        return 2 ** self.level

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


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


def locate_point(mesh: TriMesh, points) -> tuple[np.ndarray, np.ndarray]:
    """Containing triangles ``(m,)`` and barycentric weights ``(m, 3)`` of ``m`` points.

    Pure index arithmetic on the uniform grid.  Points on shared edges or
    vertices resolve to the lowest-index containing triangle.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not ((points >= 0.0) & (points <= 1.0)).all():
        raise ValueError("points must lie in the closed unit square")

    n = mesh.cells_per_side
    scaled = points * n
    cell = np.minimum(scaled.astype(np.int64), n - 1)
    # A point (numerically) on a grid line is also contained in the
    # neighbouring cell, whose triangles carry lower indices.
    cell -= (cell >= 1) & (scaled - cell <= _BARY_TOL)
    fx, fy = (scaled - cell).T
    # On the diagonal both triangles contain the point; the lower one wins.
    upper = fx - fy < -_BARY_TOL
    bary = np.where(
        upper[:, None],
        np.array([1.0 - fy, fx, fy - fx]).T,
        np.array([1.0 - fx, fx - fy, fy]).T,
    )
    bary = bary.clip(0.0, 1.0)
    bary /= bary.sum(axis=1, keepdims=True)
    return 2 * (cell[:, 1] * n + cell[:, 0]) + upper, bary


def parent_elements(fine: TriMesh, coarse: TriMesh) -> np.ndarray:
    """Index of the coarse ancestor of every fine triangle (read-only).

    Pure index arithmetic on the nested family; no geometry is evaluated.
    The map depends on the two levels only and is computed once per pair.
    """
    if coarse.level > fine.level:
        raise ValueError("coarse mesh must not be finer than the fine mesh")
    return _parent_map(fine.level, coarse.level)


# One convergence study needs at most MAX_LEVEL maps, one per study level.
@functools.lru_cache(maxsize=MAX_LEVEL)
def _parent_map(fine_level: int, coarse_level: int) -> np.ndarray:
    delta = fine_level - coarse_level
    nf = 2 ** fine_level
    nc = 2 ** coarse_level

    t = np.arange(2 * nf * nf, dtype=np.int64)
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
    parents = 2 * (iyc * nc + ixc) + coarse_kind
    parents.setflags(write=False)
    return parents

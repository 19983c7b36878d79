"""Uniform nested triangulations of the unit square (0,1)^2.

The meshes form a single family: at level ``L`` the square is divided into
``2**L`` cells per side and every cell is split along the diagonal running
from its lower-left to its upper-right corner.  Meshes of different levels
are exactly nested, which lets coarse-against-fine control errors be
computed without any cross-mesh quadrature.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_LEVEL",
    "TriMesh",
    "build_uniform_mesh",
    "level_of",
    "locate_point",
    "triangle_nodes",
]

# At level 14 one float64 value per triangle (2 * 4**14, about 5.4e8) already
# takes 4.3 GB; no study on one machine needs a finer mesh.
MAX_LEVEL = 14

# Absolute slack on barycentric coordinates when deciding containment.
_BARY_TOL = 1e-12


@dataclass(frozen=True)
class TriMesh:
    """Uniform triangulation of the closed unit square at a refinement level.

    No coordinate or connectivity array is stored.  With ``n = 2**level``,
    node ``iy*(n+1) + ix`` sits at ``(ix/n, iy/n)``: nodal values ravel an
    ``(n+1, n+1)`` grid.  Cell ``c = iy*n + ix`` owns triangles ``2*c``
    below its diagonal, with vertices ``(v00, v10, v11)``, and ``2*c + 1``
    above it, with ``(v00, v11, v01)``, where ``vab`` is the node at
    ``(ix + a, iy + b)``; both are counter-clockwise.

    Attributes
    ----------
    level : int
        Refinement level; the mesh size is ``h = 2**-level``.
    element_area : float
        Common triangle area ``h**2 / 2``.
    """

    level: int
    element_area: float

    @property
    def cells_per_side(self) -> int:
        return 2 ** self.level

    @property
    def num_nodes(self) -> int:
        return (2 ** self.level + 1) ** 2

    @property
    def num_triangles(self) -> int:
        return 2 * 4 ** self.level


def build_uniform_mesh(level: int) -> TriMesh:
    """The level-``level`` mesh of the family.

    Each grid square ``[ih,(i+1)h] x [jh,(j+1)h]`` is split by the diagonal
    from ``(ih, jh)`` to ``((i+1)h, (j+1)h)``.  A mesh is two numbers, so
    it is built on every call; meshes of one level compare equal.
    """
    if not isinstance(level, numbers.Integral):
        raise ValueError(f"level {level!r} is not an integer")
    level = int(level)
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > MAX_LEVEL:
        raise ValueError(f"level {level} exceeds the supported cap {MAX_LEVEL}")
    return TriMesh(level=level, element_area=2.0 ** (-2 * level - 1))


def level_of(values) -> int:
    """The level of the control ``values``, a 1-D array whose length ``2 * 4**level`` gives it; no mesh is built."""
    n = len(values) if np.ndim(values) == 1 else 0
    level = (n.bit_length() - 2) // 2
    if not (0 <= level <= MAX_LEVEL and n == 2 * 4 ** level):
        raise ValueError(f"shape {np.shape(values)} is not (2 * 4**level,) for a level from 0 to {MAX_LEVEL}")
    return level


def triangle_nodes(mesh: TriMesh, elements) -> np.ndarray:
    """Vertex node indices ``(m, 3)`` of triangles ``elements``, from their cell indices."""
    n = mesh.cells_per_side
    cell, upper = elements >> 1, elements & 1
    v00 = cell + cell // n  # iy*(n+1) + ix with cell = iy*n + ix
    return v00[:, None] + np.stack([np.zeros_like(upper), 1 + upper * (n + 1), n + 2 - upper], axis=1)


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

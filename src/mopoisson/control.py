"""Piecewise-constant controls: L2 geometry, box projection, prolongation."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mesh import MAX_LEVEL, TriMesh, build_uniform_mesh

if TYPE_CHECKING:
    from .fem import P1Function

__all__ = [
    "PwcControl",
    "BoxBounds",
    "clip_to_box",
    "l2_inner",
    "l2_norm",
    "prolong",
    "l2_error",
    "pi0_project",
    "write_control",
    "read_control",
]


@dataclass
class PwcControl:
    """One real value per triangle."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.shape != (self.mesh.num_triangles,):
            raise ValueError("value count does not match the triangle count")
        self.values = values


@dataclass(frozen=True)
class BoxBounds:
    """Constant bilateral bounds ua <= u <= ub.

    Spatially varying bounds are rejected: the projection formula and the
    regularity the solvers rely on assume real constants.
    """

    ua: float
    ub: float

    def __post_init__(self):
        if np.ndim(self.ua) != 0 or np.ndim(self.ub) != 0:
            raise ValueError("bounds must be real constants")
        object.__setattr__(self, "ua", float(self.ua))
        object.__setattr__(self, "ub", float(self.ub))
        if not self.ua <= self.ub:
            raise ValueError("lower bound exceeds upper bound")


def clip_to_box(u: PwcControl, b: BoxBounds) -> PwcControl:
    """Per-triangle min(ub, max(ua, u)); idempotent."""
    return PwcControl(u.mesh, np.clip(u.values, b.ua, b.ub))


def _check_same_mesh(u: PwcControl, v: PwcControl) -> None:
    if u.mesh.level != v.mesh.level:
        raise ValueError("controls live on different meshes")


def l2_inner(u: PwcControl, v: PwcControl) -> float:
    """Exact L2 inner product: sum_T |T| u_T v_T."""
    _check_same_mesh(u, v)
    return float(u.mesh.element_area * (u.values @ v.values))


def l2_norm(u: PwcControl) -> float:
    return math.sqrt(l2_inner(u, u))


def prolong(u: PwcControl, fine: TriMesh) -> PwcControl:
    """Exact injection to a finer mesh of the family.

    Each fine triangle inherits the value of its coarse ancestor, so the
    function is preserved pointwise and the L2 norm exactly.  With
    ``s = 2**(fine.level - coarse.level)`` the fine values are viewed as
    ``(nc, s, nc, s, 2)``: coarse row, row offset ``b``, coarse column,
    column offset ``a``, fine kind.  A fine triangle lies in the upper
    coarse triangle when ``b > a``, or when ``b == a`` and it is an upper
    one itself; otherwise it lies in the lower one.  Along ``(a, kind)``,
    row ``b`` of a coarse cell thus reads ``2b`` upper values, one lower,
    one upper, then lower ones: the window at ``2(s - 1 - b)`` of one
    ``(4s - 2)``-long sequence per coarse cell.  The prolongation is one
    strided copy of those windows; no index map is built or kept, and the
    sequences take ``(2s - 1) / s**2`` of the fine vector.
    """
    coarse = u.mesh
    if coarse.level > fine.level:
        raise ValueError("coarse mesh must not be finer than the fine mesh")
    nc, s = coarse.cells_per_side, 2 ** (fine.level - coarse.level)
    lower, upper = u.values.reshape(nc, nc, 2, 1).transpose(2, 0, 1, 3)
    seq = np.empty((nc, nc, 4 * s - 2))
    seq[..., :2 * s] = upper
    seq[..., 2 * s - 2] = lower[..., 0]
    seq[..., 2 * s:] = lower
    values = np.empty((nc, s, nc, 2 * s))  # (row, b, column, (a, kind))
    values.transpose(0, 2, 1, 3)[...] = sliding_window_view(seq, 2 * s, axis=-1)[:, :, ::-2]
    return PwcControl(fine, values.ravel())


def l2_error(u_coarse: PwcControl, u_ref: PwcControl) -> float:
    """L2 distance after prolonging the coarse control to the reference mesh."""
    diff = prolong(u_coarse, u_ref.mesh).values  # a fresh gather, so subtract in place
    diff -= u_ref.values
    return math.sqrt(u_ref.mesh.element_area * float(diff @ diff))


def pi0_project(f: "P1Function") -> PwcControl:
    """L2-orthogonal projection onto piecewise constants: per-element means.

    Satisfies ``(f - pi0 f, w) = 0`` for every piecewise-constant ``w``.
    Each mean sums the vertex values as ``(a + b) + c`` on node-grid slices, then divides by 3.
    """
    n = f.mesh.cells_per_side
    g = f.nodal_values.reshape(n + 1, n + 1)
    means = np.empty((n, n, 2))
    np.add(g[:-1, :-1], g[:-1, 1:], out=means[..., 0])
    means[..., 0] += g[1:, 1:]
    np.add(g[:-1, :-1], g[1:, 1:], out=means[..., 1])
    means[..., 1] += g[1:, :-1]
    means /= 3
    return PwcControl(f.mesh, means.ravel())


def write_control(u: PwcControl, path) -> None:
    """Serialize the values as a 1-D float64 ``.npy`` array; the count gives the level."""
    # A file handle, because np.save appends ".npy" to a path without it.
    with open(path, "wb") as fh:
        np.save(fh, u.values.astype("<f8", copy=False), allow_pickle=False)


def read_control(path, level: int | None = None) -> PwcControl:
    """Read a file of :func:`write_control`, rebuilding the mesh.

    The header is checked before any value is read or a mesh is built,
    including, if ``level`` is given, that the count is that level's;
    nothing is ever unpickled.
    """
    try:
        mapped = np.load(path, mmap_mode="r", allow_pickle=False)
    except (ValueError, EOFError, OverflowError) as exc:
        raise ValueError(f"{path}: not a control file: {exc}") from exc
    if mapped.ndim != 1 or mapped.dtype.str != "<f8":
        raise ValueError(f"{path}: expected a 1-D <f8 array, found {mapped.dtype.str} {mapped.shape}")
    found = (mapped.size // 2).bit_length() // 2  # size == 2 * 4**found
    if found > MAX_LEVEL or mapped.size != 2 * 4 ** found:
        raise ValueError(f"{path}: {mapped.size} values is not 2*4**L with L in [0, {MAX_LEVEL}]")
    if level is not None and found != level:
        raise ValueError(f"{path}: a level-{found} control, expected level {level}")
    if os.path.getsize(path) != mapped.offset + mapped.nbytes:
        raise ValueError(f"{path}: bytes after the last value")
    values = np.array(mapped)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite value")
    return PwcControl(build_uniform_mesh(found), values)

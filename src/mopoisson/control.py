"""Piecewise-constant controls: L2 geometry, box projection, prolongation."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .mesh import MAX_LEVEL, TriMesh, build_uniform_mesh, parent_elements

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
    function is preserved pointwise and the L2 norm exactly.
    """
    if fine.level < u.mesh.level:
        raise ValueError("target mesh must not be coarser than the control's mesh")
    if fine.level == u.mesh.level:
        return PwcControl(fine, u.values.copy())
    return PwcControl(fine, u.values[parent_elements(fine, u.mesh)])


def l2_error(u_coarse: PwcControl, u_ref: PwcControl) -> float:
    """L2 distance after prolonging the coarse control to the reference mesh."""
    diff = prolong(u_coarse, u_ref.mesh).values - u_ref.values
    return math.sqrt(u_ref.mesh.element_area * float(diff @ diff))


def pi0_project(f: "P1Function") -> PwcControl:
    """L2-orthogonal projection onto piecewise constants: per-element means.

    Satisfies ``(f - pi0 f, w) = 0`` for every piecewise-constant ``w``.
    """
    return PwcControl(f.mesh, f.nodal_values[f.mesh.triangles].mean(axis=1))


def write_control(u: PwcControl, path) -> None:
    """Serialize the values as a 1-D float64 ``.npy`` array; the count gives the level."""
    # A file handle, because np.save appends ".npy" to a path without it.
    with open(path, "wb") as fh:
        np.save(fh, u.values.astype("<f8", copy=False), allow_pickle=False)


def read_control(path) -> PwcControl:
    """Read a file of :func:`write_control`, rebuilding the mesh.

    The header is checked before any value is read or a mesh is built;
    nothing is ever unpickled.
    """
    try:
        mapped = np.load(path, mmap_mode="r", allow_pickle=False)
    except (ValueError, EOFError, OverflowError) as exc:
        raise ValueError(f"{path}: not a control file: {exc}") from exc
    if mapped.ndim != 1 or mapped.dtype.str != "<f8":
        raise ValueError(f"{path}: expected a 1-D <f8 array, found {mapped.dtype.str} {mapped.shape}")
    level = (mapped.size // 2).bit_length() // 2  # size == 2 * 4**level
    if level > MAX_LEVEL or mapped.size != 2 * 4 ** level:
        raise ValueError(f"{path}: {mapped.size} values is not 2*4**L with L in [0, {MAX_LEVEL}]")
    if os.path.getsize(path) != mapped.offset + mapped.nbytes:
        raise ValueError(f"{path}: bytes after the last value")
    values = np.array(mapped)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite value")
    return PwcControl(build_uniform_mesh(level), values)

"""Piecewise-constant controls, each the flat array of its triangle values: bounds, prolongation, files."""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from tokenize import TokenError

import numpy as np
from numpy.lib import format as npy
from numpy.lib.stride_tricks import sliding_window_view

from .mesh import MAX_LEVEL, TriMesh, build_uniform_mesh, level_of

__all__ = [
    "BoxBounds",
    "prolong",
    "l2_error",
    "pi0_project",
    "write_control",
    "read_control",
]


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


def prolong(u: np.ndarray, level: int) -> np.ndarray:
    """Exact injection to the mesh of level ``level``, at least that of ``u``.

    Each fine triangle inherits the value of its coarse ancestor, so the
    function is preserved pointwise and the L2 norm exactly.  With
    ``s = 2**(level - coarse level)`` the fine values are viewed as
    ``(nc, s, nc, s, 2)``: coarse row, row offset ``b``, coarse column,
    column offset ``a``, fine kind.  A fine triangle lies in the upper
    coarse triangle when ``b > a``, or when ``b == a`` and it is an upper
    one itself; otherwise it lies in the lower one.  Along ``(a, kind)``,
    row ``b`` of a coarse cell thus reads ``2b`` upper values, one lower,
    one upper, then lower ones: the window at ``2(s - 1 - b)`` of one
    ``(4s - 2)``-long sequence per coarse cell.  The prolongation is one
    strided copy of those windows; no index map or mesh is built or kept,
    and the sequences take ``(2s - 1) / s**2`` of the fine vector.
    """
    coarse = level_of(u)
    if not coarse <= level <= MAX_LEVEL:
        raise ValueError(f"level {level!r} is not from the level {coarse} of the values to {MAX_LEVEL}")
    nc, s = 2 ** coarse, 2 ** (level - coarse)
    lower, upper = u.reshape(nc, nc, 2, 1).transpose(2, 0, 1, 3)
    seq = np.empty((nc, nc, 4 * s - 2))
    seq[..., :2 * s] = upper
    seq[..., 2 * s - 2] = lower[..., 0]
    seq[..., 2 * s:] = lower
    values = np.empty((nc, s, nc, 2 * s))  # (row, b, column, (a, kind))
    values.transpose(0, 2, 1, 3)[...] = sliding_window_view(seq, 2 * s, axis=-1)[:, :, ::-2]
    return values.ravel()


def l2_error(u_coarse: np.ndarray, u_ref: np.ndarray) -> float:
    """L2 distance after prolonging the coarse control to the reference mesh; both levels come from the lengths."""
    diff = prolong(u_coarse, level_of(u_ref))  # a fresh gather, so subtract in place
    diff -= u_ref
    return math.sqrt(float(diff @ diff) / len(u_ref))  # |T| = 1 / len


def pi0_project(mesh: TriMesh, nodal) -> np.ndarray:
    """L2-orthogonal projection of the P1 function ``nodal`` onto piecewise constants.

    Per-element means, satisfying ``(f - pi0 f, w) = 0`` for every piecewise-constant ``w``.
    Each mean sums the vertex values as ``(a + b) + c`` on node-grid slices, then divides by 3.
    """
    nodal = np.asarray(nodal, dtype=np.float64)
    if nodal.shape != (mesh.num_nodes,):
        raise ValueError("nodal value count does not match the mesh")
    n = mesh.cells_per_side
    g = nodal.reshape(n + 1, n + 1)
    means = np.empty((n, n, 2))
    np.add(g[:-1, :-1], g[:-1, 1:], out=means[..., 0])
    means[..., 0] += g[1:, 1:]
    np.add(g[:-1, :-1], g[1:, 1:], out=means[..., 1])
    means[..., 1] += g[1:, :-1]
    means /= 3
    return means.ravel()


def write_control(u: np.ndarray, path) -> None:
    """Serialize the values as a 1-D float64 ``.npy`` array; the count gives the level."""
    # A file handle, because np.save appends ".npy" to a path without it.
    with open(path, "wb") as fh:
        np.save(fh, np.asarray(u, dtype="<f8"), allow_pickle=False)


def read_control(path, level: int) -> np.ndarray:
    """The values of a level-``level`` control written by :func:`write_control`.

    The header, including that the count is that level's, is checked
    before any value is read; nothing is ever unpickled or memory-mapped.
    Every fault of the file, and a level that no mesh has, raises
    :class:`ValueError`.
    """
    count = build_uniform_mesh(level).num_triangles
    with open(path, "rb") as fh:
        try:
            if npy.read_magic(fh) != (1, 0):  # np.save's version for a 1-D float64 array
                raise ValueError("not a version-1.0 .npy file")
            with warnings.catch_warnings():  # numpy warns, then reads, a Python 2 header like "(8L,)"
                warnings.simplefilter("error", UserWarning)
                shape, _, dtype = npy.read_array_header_1_0(fh)
        # besides ValueError, numpy's header parser lets SyntaxError, TokenError and TypeError escape
        except (ValueError, SyntaxError, TokenError, TypeError, UserWarning) as exc:
            raise ValueError(f"{path}: not a control file: {exc}") from exc
        if len(shape) != 1 or dtype.str != "<f8":
            raise ValueError(f"{path}: expected a 1-D <f8 array, found {dtype.str} {shape}")
        if shape[0] != count:
            raise ValueError(f"{path}: {shape[0]} values, not the {count} of a level-{level} control")
        if os.path.getsize(path) != fh.tell() + 8 * count:
            raise ValueError(f"{path}: {os.path.getsize(path) - fh.tell()} bytes of values, not {8 * count}")
        values = np.fromfile(fh, dtype="<f8", count=count)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite value")
    return values

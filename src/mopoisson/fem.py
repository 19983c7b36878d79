"""P1 finite elements: the stiffness operator, load vectors, SPD solves.

All integrals are evaluated with exact closed-form formulas; every
integrand that occurs is piecewise polynomial of degree at most one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.fft import rfft

from .mesh import TriMesh, locate_point, triangle_nodes

if TYPE_CHECKING:
    from .control import PwcControl

__all__ = [
    "SolverError",
    "P1Function",
    "StiffnessSystem",
    "assemble_stiffness",
    "assemble_load_pwc",
    "assemble_point_load",
    "solve_spd",
    "evaluate",
]

# Residual tolerance of every linear solve, relative to max(1, |rhs|).
LINEAR_TOL = 1e-12


class SolverError(RuntimeError):
    """Raised when a linear solve does not reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class P1Function:
    """Continuous piecewise-linear function given by its nodal values.

    The values are the row-major ravel of the mesh's ``(n+1, n+1)`` node
    grid.  Members of the zero-boundary space carry exact zeros on boundary
    nodes.
    """

    mesh: TriMesh
    nodal_values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.nodal_values, dtype=np.float64)
        if values.shape != (self.mesh.num_nodes,):
            raise ValueError("nodal value count does not match the mesh")
        self.nodal_values = values


@dataclass
class StiffnessSystem:
    """Symmetric positive-definite stiffness operator over interior nodes.

    On this mesh family the P1 stiffness matrix is exactly the 5-point
    Laplacian, which the orthonormal type-1 discrete sine transform (DST-I)
    diagonalizes: the classical fast Poisson solver (Hockney, J. ACM 12,
    1965; Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).  The
    unknowns are the interior ``[1:-1, 1:-1]`` of the node grid, row-major.
    No lock is needed: racing first calls of :meth:`factorize` compute the
    same array twice, which is harmless.
    """

    mesh: TriMesh
    _eig: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def num_unknowns(self) -> int:
        return (self.mesh.cells_per_side - 1) ** 2

    def factorize(self) -> "StiffnessSystem":
        """Cache the eigenvalues ``4 sin^2(i pi/2n) + 4 sin^2(j pi/2n)`` on the unknown grid."""
        if self._eig is None:
            n = self.mesh.cells_per_side
            s = 4.0 * np.sin(np.arange(1, n) * (np.pi / (2 * n))) ** 2
            self._eig = s[:, None] + s[None, :]
        return self

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``A x`` by the matrix-free 5-point stencil."""
        m = self.mesh.cells_per_side - 1
        g = x.reshape(m, m)
        y = 4.0 * g
        y[1:] -= g[:-1]
        y[:-1] -= g[1:]
        y[:, 1:] -= g[:, :-1]
        y[:, :-1] -= g[:, 1:]
        return y.ravel()


def assemble_stiffness(mesh: TriMesh) -> StiffnessSystem:
    """The interior-node stiffness system of ``mesh``; nothing is assembled."""
    return StiffnessSystem(mesh=mesh)


def _check_mesh(mesh: TriMesh, other: TriMesh, what: str) -> None:
    if other.level != mesh.level:
        raise ValueError(f"{what} lives on a different mesh (levels {other.level} vs {mesh.level})")


def assemble_load_pwc(mesh: TriMesh, u: "PwcControl") -> np.ndarray:
    """Interior load vector of a piecewise-constant source.

    The exact integral of a hat function against a constant contributes
    ``u_T |T| / 3`` to each vertex of ``T``: per cell, the lower triangle
    to nodes ``v00, v10, v11`` and the upper one to ``v00, v11, v01``.
    """
    _check_mesh(mesh, u.mesh, "control")
    n = mesh.cells_per_side
    w = (u.values * (mesh.element_area / 3.0)).reshape(n, n, 2)
    both = w[..., 0] + w[..., 1]
    full = np.zeros((n + 1, n + 1))
    full[:-1, :-1] += both
    full[1:, 1:] += both
    full[:-1, 1:] += w[..., 0]
    full[1:, :-1] += w[..., 1]
    return full[1:-1, 1:-1].ravel()


def assemble_point_load(mesh: TriMesh, points, coeffs) -> np.ndarray:
    """Interior load vector ``l_i = sum_j coeffs_j phi_i(points_j)``.

    Observation points must lie strictly inside the domain.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=np.float64))
    if points.shape[0] != coeffs.shape[0]:
        raise ValueError("points and coefficients differ in length")
    if not ((points > 0.0) & (points < 1.0)).all():
        raise ValueError("observation points must be interior")
    elements, bary = locate_point(mesh, points)
    n = mesh.cells_per_side
    full = np.zeros((n + 1, n + 1))
    np.add.at(full.reshape(-1), triangle_nodes(mesh, elements), bary * coeffs[:, None])
    return full[1:-1, 1:-1].ravel()


def _dst1(a: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DST-I of a square array; the transform is its own inverse.

    Each pass takes the imaginary part of the real FFT of every row's odd
    extension ``[0, x, 0, -x reversed]`` (Cooley, Lewis & Welch, J. Sound
    Vib. 12, 1970), then transposes.  One pass negates the sine sums, so
    the two passes' signs cancel.  Both passes fill one extension buffer.
    """
    m = a.shape[0]
    ext = np.empty((m, 2 * m + 2))
    ext[:, 0] = 0.0
    ext[:, m + 1] = 0.0
    for _ in range(2):
        ext[:, 1 : m + 1] = a
        np.negative(a[:, ::-1], out=ext[:, m + 2 :])
        a = rfft(ext)[:, 1 : m + 1].imag.T
    return a / (2 * m + 2)


def solve_spd(system: StiffnessSystem, rhs: np.ndarray, tol: float = LINEAR_TOL) -> P1Function:
    """Solve the interior system and return the zero-boundary P1 solution.

    Computes ``_dst1(_dst1(rhs) / eig)`` plus at most one refinement step,
    and guarantees ``|A x - rhs| <= tol * max(1, |rhs|)``;
    :class:`SolverError` carries the residual otherwise.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (system.num_unknowns,):
        raise ValueError("right-hand side length does not match the unknown count")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")

    eig = system.factorize()._eig

    def inverse(b):
        return _dst1(_dst1(b.reshape(eig.shape)) / eig).ravel()

    target = tol * max(1.0, np.linalg.norm(rhs))
    x = inverse(rhs)
    r = rhs - system.apply(x)
    if np.linalg.norm(r) > target:
        x = x + inverse(r)
        r = rhs - system.apply(x)
    residual = float(np.linalg.norm(r))
    if residual > target:
        raise SolverError(f"DST residual {residual:.3e} exceeds tolerance {target:.3e}", residual=residual)
    n = system.mesh.cells_per_side
    full = np.zeros((n + 1, n + 1))
    full[1:-1, 1:-1] = x.reshape(eig.shape)
    return P1Function(system.mesh, full.ravel())


def evaluate(f: P1Function, points) -> np.ndarray:
    """Values at ``points`` by barycentric interpolation; exact for linear nodal data."""
    elements, bary = locate_point(f.mesh, points)
    return (bary * f.nodal_values[triangle_nodes(f.mesh, elements)]).sum(axis=1)

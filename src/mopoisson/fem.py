"""P1 finite elements: stiffness assembly, load vectors, SPD solves.

All integrals are evaluated with exact closed-form formulas; every
integrand that occurs is piecewise polynomial of degree at most one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .mesh import TriMesh, locate_point

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

    Members of the zero-boundary space carry exact zeros on boundary nodes.
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

    ``matrix[i, j] = sum_T grad(phi_i) . grad(phi_j) |T|`` for interior
    basis functions, with unknown ``k`` attached to node
    ``interior_nodes[k]``.  Immutable after assembly; concurrent solves
    against one system are permitted (solves serialize on an internal
    lock because SuperLU re-entrancy is not guaranteed).
    """

    mesh: TriMesh
    matrix: sparse.csr_matrix
    interior_nodes: np.ndarray
    _lu: object = field(default=None, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    @property
    def num_unknowns(self) -> int:
        return self.interior_nodes.shape[0]

    def factorize(self) -> "StiffnessSystem":
        """Cache a sparse LU factorization; subsequent solves reuse it."""
        with self._lock:
            if self._lu is None and self.num_unknowns > 0:
                self._lu = spla.splu(self.matrix.tocsc())
        return self


def assemble_stiffness(mesh: TriMesh) -> StiffnessSystem:
    """Assemble the interior-node stiffness matrix from exact P1 gradients.

    Only the upper triangle is accumulated and then mirrored, so the
    result satisfies ``A == A.T`` exactly.
    """
    tri = mesh.triangles
    pts = mesh.nodes[tri]
    # Edge vectors opposite each vertex of the CCW triangle; the local
    # stiffness is (e_i . e_j) / (4 |T|).
    edges = np.empty_like(pts)
    edges[:, 0] = pts[:, 2] - pts[:, 1]
    edges[:, 1] = pts[:, 0] - pts[:, 2]
    edges[:, 2] = pts[:, 1] - pts[:, 0]
    local = np.einsum("tik,tjk->tij", edges, edges) / (4.0 * mesh.element_area)

    unknown = np.where(mesh.interior_mask, np.cumsum(mesh.interior_mask) - 1, -1)
    rows = unknown[tri][:, :, None]
    cols = unknown[tri][:, None, :]
    rows = np.broadcast_to(rows, local.shape)
    cols = np.broadcast_to(cols, local.shape)
    keep = (rows >= 0) & (cols >= 0) & (rows <= cols)

    n = int(mesh.interior_mask.sum())
    upper = sparse.coo_matrix(
        (local[keep], (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()
    matrix = (upper + sparse.triu(upper, k=1).T).tocsr()
    return StiffnessSystem(
        mesh=mesh,
        matrix=matrix,
        interior_nodes=np.flatnonzero(mesh.interior_mask),
    )


def _check_mesh(mesh: TriMesh, other: TriMesh, what: str) -> None:
    if other.level != mesh.level:
        raise ValueError(f"{what} lives on a different mesh (levels {other.level} vs {mesh.level})")


def assemble_load_pwc(mesh: TriMesh, u: "PwcControl") -> np.ndarray:
    """Interior load vector of a piecewise-constant source.

    The exact integral of a hat function against a constant contributes
    ``u_T |T| / 3`` to each vertex of ``T``.
    """
    _check_mesh(mesh, u.mesh, "control")
    full = np.zeros(mesh.num_nodes)
    np.add.at(full, mesh.triangles.ravel(), np.repeat(u.values * (mesh.element_area / 3.0), 3))
    return full[mesh.interior_mask]


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
    full = np.zeros(mesh.num_nodes)
    np.add.at(full, mesh.triangles[elements], bary * coeffs[:, None])
    return full[mesh.interior_mask]


def solve_spd(system: StiffnessSystem, rhs: np.ndarray, tol: float = LINEAR_TOL) -> P1Function:
    """Solve the interior system and return the zero-boundary P1 solution.

    Uses the cached sparse LU factorization (computed on first use) plus at
    most one refinement step, and guarantees ``|A x - rhs| <= tol *
    max(1, |rhs|)``; :class:`SolverError` carries the residual otherwise.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (system.num_unknowns,):
        raise ValueError("right-hand side length does not match the unknown count")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")

    full = np.zeros(system.mesh.num_nodes)
    if system.num_unknowns == 0:
        return P1Function(system.mesh, full)
    system.factorize()
    target = tol * max(1.0, np.linalg.norm(rhs))
    with system._lock:
        x = system._lu.solve(rhs)
        r = rhs - system.matrix @ x
        if np.linalg.norm(r) > target:
            x = x + system._lu.solve(r)
            r = rhs - system.matrix @ x
    residual = float(np.linalg.norm(r))
    if residual > target:
        raise SolverError(f"LU residual {residual:.3e} exceeds tolerance {target:.3e}", residual=residual)
    full[system.interior_nodes] = x
    return P1Function(system.mesh, full)


def evaluate(f: P1Function, points) -> np.ndarray:
    """Values at ``points`` by barycentric interpolation; exact for linear nodal data."""
    elements, bary = locate_point(f.mesh, points)
    return (bary * f.nodal_values[f.mesh.triangles[elements]]).sum(axis=1)

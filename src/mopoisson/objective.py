"""Bicriterial pointwise-tracking objective, adjoints, and gradients.

Both criteria penalize squared mismatches of the discrete state at finitely
many interior observation points plus a quadratic control cost.  Gradients
are returned as the exact Riesz representers in the piecewise-constant
control space: per triangle, element means of the adjoint states plus the
control-cost term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .control import BoxBounds, pi0_project
from .fem import StiffnessSystem, assemble_load_pwc, assemble_point_load, evaluate, solve_spd

__all__ = [
    "MAX_MAGNITUDE",
    "ProblemData",
    "ObjectivePair",
    "solve_state",
    "solve_adjoints",
    "greens_function_means",
    "eval_objectives",
    "gram_matrix",
    "coefficient_map",
    "grad_wsm",
    "grad_rpm",
]

# Largest accepted |desired value|, |weight|, |box bound| and |reference point|:
# their squares and products stay finite.
MAX_MAGNITUDE = 1e100


@dataclass(frozen=True)
class ProblemData:
    """Observation points, desired values, weights, and box bounds.

    ``obs1``/``obs2`` are (n_k, 2) arrays of strictly interior points with
    desired values ``y1``/``y2``; ``lambda1``/``lambda2`` are the positive
    control-cost weights of the two criteria.  These values and the box
    bounds are at most :data:`MAX_MAGNITUDE` in magnitude.  Instances
    are immutable (the arrays are read-only copies), so the Green's function
    means of a mesh level and their Gram matrix, kept as a pair in
    ``_greens`` by the solver's first solve at that level, stay valid for
    every later solve.  Racing first solves at one level store equal pairs.  ``y`` stacks ``y1``, then ``y2``, in the
    row order of those means, and ``_point_set`` holds each row's criterion
    index (0 or 1).
    """

    obs1: np.ndarray
    y1: np.ndarray
    obs2: np.ndarray
    y2: np.ndarray
    lambda1: float
    lambda2: float
    bounds: BoxBounds
    y: np.ndarray = field(init=False, repr=False, compare=False)
    _point_set: np.ndarray = field(init=False, repr=False, compare=False)
    _greens: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, ndmin in (("obs1", 2), ("y1", 1), ("obs2", 2), ("y2", 1)):
            values = np.array(getattr(self, name), dtype=np.float64, ndmin=ndmin)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        for k, (obs, des) in enumerate([(self.obs1, self.y1), (self.obs2, self.y2)], start=1):
            if obs.shape[0] == 0:
                raise ValueError(f"observation set {k} is empty")
            if obs.shape != (des.shape[0], 2):
                raise ValueError(f"observation set {k} and desired values do not match")
            if not np.all((obs > 0.0) & (obs < 1.0)):
                raise ValueError(f"observation set {k} must lie strictly inside the domain")
            if not np.all(np.abs(des) <= MAX_MAGNITUDE):
                raise ValueError(f"desired values of set {k} must be at most {MAX_MAGNITUDE:g} in magnitude")
        y = np.concatenate((self.y1, self.y2))
        point_set = np.repeat([0, 1], [self.y1.shape[0], self.y2.shape[0]])
        for name, values in (("y", y), ("_point_set", point_set)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        object.__setattr__(self, "lambda1", float(self.lambda1))
        object.__setattr__(self, "lambda2", float(self.lambda2))
        if not (0.0 < self.lambda1 <= MAX_MAGNITUDE and 0.0 < self.lambda2 <= MAX_MAGNITUDE):
            raise ValueError(f"regularization weights must be positive and at most {MAX_MAGNITUDE:g}")
        if not max(abs(self.bounds.ua), abs(self.bounds.ub)) <= MAX_MAGNITUDE:
            raise ValueError(f"box bounds must be at most {MAX_MAGNITUDE:g} in magnitude")


@dataclass(frozen=True)
class ObjectivePair:
    """Value pair (j1, j2) of the two criteria; both are nonnegative."""

    j1: float
    j2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.j1, self.j2])


def solve_state(system: StiffnessSystem, u: np.ndarray) -> np.ndarray:
    """Discrete control-to-state map: the nodal values of the Poisson solve with source ``u``."""
    return solve_spd(system, assemble_load_pwc(system.mesh, u))


def solve_adjoints(problem: ProblemData, system: StiffnessSystem, state: np.ndarray) -> tuple:
    """Solve both adjoint systems, loaded by the observation residuals of the nodal ``state``.

    Returns ``((r1, m1), (r2, m2))``: per observation set, the residuals
    ``r = state(obs) - y``, gathered by :func:`evaluate`, and the element
    means ``m`` of the adjoint loaded by the Dirac load ``sum_j r_j
    phi(obs_j)`` of :func:`assemble_point_load`.  This is the full PDE route
    to what :func:`eval_objectives` and the gradients take from the Green's
    function means without a solve.
    """
    mesh = system.mesh
    pairs = []
    for obs, desired in ((problem.obs1, problem.y1), (problem.obs2, problem.y2)):
        r = evaluate(mesh, state, obs) - desired
        pairs.append((r, pi0_project(mesh, solve_spd(system, assemble_point_load(mesh, obs, r)))))
    return tuple(pairs)


def greens_function_means(problem: ProblemData, system: StiffnessSystem) -> np.ndarray:
    """Element means of the discrete Green's function of every observation point.

    Row ``j`` of the ``(n1 + n2, N)`` matrix ``G`` is ``pi0(w)`` with ``A w
    = phi(x_j)``, the points ``x_j`` running through ``obs1``, then
    ``obs2``: one solve per point.  Since ``A`` is symmetric and the P1 load
    of a constant is ``|T|/3`` per vertex, ``|T| G u`` is the state of ``u``
    at the points and ``G^T r`` the element means of the adjoint loaded by
    ``r``.
    """
    mesh = system.mesh
    points = np.concatenate((problem.obs1, problem.obs2))
    return np.array([pi0_project(mesh, solve_spd(system, assemble_point_load(mesh, x, 1.0)))
                     for x in points])


def _pair(problem: ProblemData, area: float, Gu: np.ndarray, uu: float) -> tuple:
    """Residuals ``r = |T| Gu - y`` and the criteria ``j_k = |r_k|^2 / 2 + lambda_k |T| uu / 2`` from ``G u`` and ``u.u``."""
    n1 = problem.y1.shape[0]
    r = area * Gu - problem.y
    r1, r2 = r[:n1], r[n1:]
    un2 = area * uu
    return r, 0.5 * r1.dot(r1) + 0.5 * problem.lambda1 * un2, 0.5 * r2.dot(r2) + 0.5 * problem.lambda2 * un2


def eval_objectives(
    problem: ProblemData, greens: np.ndarray, area: float, u: np.ndarray
) -> tuple[np.ndarray, ObjectivePair]:
    """Residuals ``r = |T| G u - y`` and the objective pair of the control values ``u``.

    ``greens`` is the matrix of :func:`greens_function_means` and ``area``
    the element area ``|T|``; ``r`` stacks the residuals at ``obs1``, then
    ``obs2``.  No solve happens here, keeping solve counts auditable.
    """
    r, j1, j2 = _pair(problem, area, greens.dot(u), u.dot(u))
    return r, ObjectivePair(j1=float(j1), j2=float(j2))


def _check_weights(alpha) -> tuple[float, float]:
    a1, a2 = float(alpha[0]), float(alpha[1])
    if not (a1 > 0.0 and a2 > 0.0):
        raise ValueError("weights must be strictly positive")
    if not abs(a1 + a2 - 1.0) <= 1e-9:
        raise ValueError("weights must sum to one")
    return a1, a2


def _check_reference_point(zeta) -> tuple[float, float]:
    z1, z2 = float(zeta[0]), float(zeta[1])
    if not (abs(z1) <= MAX_MAGNITUDE and abs(z2) <= MAX_MAGNITUDE):
        raise ValueError(f"reference point must be at most {MAX_MAGNITUDE:g} in magnitude")
    return z1, z2


def gram_matrix(greens: np.ndarray) -> np.ndarray:
    """``M = G G^T``, the Gram matrix of the Green's means (``|G^T w|^2 = w.M w``), one gemv per row:
    a level-3 product made OpenBLAS touch its GEMM buffer, 128 KiB more resident at level 5."""
    return np.array([greens.dot(row) for row in greens])


def coefficient_map(problem: ProblemData, area: float, method: str, parameter) -> tuple[Callable, bool]:
    """The map ``(G u, u.u) -> (w, lam)`` of ``method`` at the checked ``parameter``, and whether ``lam`` moves.

    The gradient representer of ``c1 j1 + c2 j2`` at ``u``, per triangle
    ``sum_k c_k (mean_T(p_k) + lambda_k u_T)``, is ``G^T w + lam u`` with
    ``w = c r``, the residuals ``r = |T| G u - y``, ``c`` repeating ``(c1,
    c2)`` over the two point sets and ``lam = c1 lambda1 + c2 lambda2``.
    "wsm" takes the weights ``alpha = parameter``, so ``lam`` is fixed and
    ``u.u`` unread; otherwise ``zeta = parameter`` and ``c = j - zeta``.  The
    BB loop of every solve and :func:`grad_wsm`/:func:`grad_rpm` run this map.
    """
    point_set = problem._point_set
    if method == "wsm":
        c, y = np.array(parameter)[point_set], problem.y
        lam = parameter[0] * problem.lambda1 + parameter[1] * problem.lambda2
        return (lambda Gu, uu: (c * (area * Gu - y), lam)), False
    z1, z2 = parameter

    def rpm(Gu: np.ndarray, uu: float) -> tuple:
        r, j1, j2 = _pair(problem, area, Gu, uu)
        c1, c2 = j1 - z1, j2 - z2
        return np.array((c1, c2))[point_set] * r, c1 * problem.lambda1 + c2 * problem.lambda2

    return rpm, True


def _gradient(problem: ProblemData, greens: np.ndarray, area: float, u: np.ndarray, method: str, parameter):
    w, lam = coefficient_map(problem, area, method, parameter)[0](greens.dot(u), u.dot(u))
    return np.dot(w, greens) + lam * u


def grad_wsm(problem: ProblemData, greens: np.ndarray, area: float, u: np.ndarray, alpha) -> np.ndarray:
    """Gradient representer of the weighted-sum objective at ``u``: coefficients ``alpha``."""
    return _gradient(problem, greens, area, u, "wsm", _check_weights(alpha))


def grad_rpm(problem: ProblemData, greens: np.ndarray, area: float, u: np.ndarray, zeta) -> np.ndarray:
    """Gradient representer of the reference-point distance at ``u``: coefficients ``j(u) - zeta``."""
    return _gradient(problem, greens, area, u, "rpm", _check_reference_point(zeta))

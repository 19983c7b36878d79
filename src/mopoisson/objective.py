"""Bicriterial pointwise-tracking objective, adjoints, and gradients.

Both criteria penalize squared mismatches of the discrete state at finitely
many interior observation points plus a quadratic control cost.  Gradients
are returned as the exact Riesz representers in the piecewise-constant
control space: per triangle, element means of the adjoint states plus the
control-cost term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import BoxBounds, PwcControl, l2_norm, pi0_project
from .fem import P1Function, StiffnessSystem, assemble_load_pwc, assemble_point_load, evaluate, solve_spd

__all__ = [
    "ProblemData",
    "ObjectivePair",
    "StateAdjointBundle",
    "solve_state",
    "solve_adjoints",
    "greens_function_means",
    "reduced_bundle",
    "eval_objectives",
    "grad_wsm",
    "grad_rpm",
    "wsm_value",
    "rpm_value",
]


@dataclass
class ProblemData:
    """Observation points, desired values, weights, and box bounds.

    ``obs1``/``obs2`` are (n_k, 2) arrays of strictly interior points with
    finite desired values ``y1``/``y2``; ``lambda1``/``lambda2`` are the
    positive, finite control-cost weights of the two criteria.
    """

    obs1: np.ndarray
    y1: np.ndarray
    obs2: np.ndarray
    y2: np.ndarray
    lambda1: float
    lambda2: float
    bounds: BoxBounds

    def __post_init__(self):
        self.obs1 = np.atleast_2d(np.asarray(self.obs1, dtype=np.float64))
        self.obs2 = np.atleast_2d(np.asarray(self.obs2, dtype=np.float64))
        self.y1 = np.atleast_1d(np.asarray(self.y1, dtype=np.float64))
        self.y2 = np.atleast_1d(np.asarray(self.y2, dtype=np.float64))
        for k, (obs, des) in enumerate([(self.obs1, self.y1), (self.obs2, self.y2)], start=1):
            if obs.shape[0] == 0:
                raise ValueError(f"observation set {k} is empty")
            if obs.shape != (des.shape[0], 2):
                raise ValueError(f"observation set {k} and desired values do not match")
            if not np.all((obs > 0.0) & (obs < 1.0)):
                raise ValueError(f"observation set {k} must lie strictly inside the domain")
            if not np.all(np.isfinite(des)):
                raise ValueError(f"desired values of observation set {k} must be finite")
        self.lambda1 = float(self.lambda1)
        self.lambda2 = float(self.lambda2)
        if not (0.0 < self.lambda1 < np.inf and 0.0 < self.lambda2 < np.inf):
            raise ValueError("regularization weights must be positive and finite")


@dataclass(frozen=True)
class ObjectivePair:
    """Value pair (j1, j2) of the two criteria; both are nonnegative."""

    j1: float
    j2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.j1, self.j2])


@dataclass
class StateAdjointBundle:
    """Residuals ``y_h(obs_k) - y_k`` of one state and element means of the adjoints they load."""

    residuals1: np.ndarray
    residuals2: np.ndarray
    adjoint_means1: np.ndarray
    adjoint_means2: np.ndarray


def solve_state(problem: ProblemData, system: StiffnessSystem, u: PwcControl) -> P1Function:
    """Discrete control-to-state map: Poisson solve with source ``u``."""
    return solve_spd(system, assemble_load_pwc(system.mesh, u))


def solve_adjoints(problem: ProblemData, system: StiffnessSystem, state: P1Function) -> StateAdjointBundle:
    """Solve both adjoint systems, loaded by the observation residuals.

    The residuals ``r = state(obs) - y`` are gathered by :func:`evaluate`
    and scattered back as the Dirac load ``sum_j r_j phi(obs_j)`` by
    :func:`assemble_point_load`.  This is the full PDE route to the bundle
    that :func:`reduced_bundle` gives without a solve.
    """
    if state.mesh.level != system.mesh.level:
        raise ValueError("state lives on a different mesh than the system")
    residuals, means = [], []
    for obs, desired in ((problem.obs1, problem.y1), (problem.obs2, problem.y2)):
        r = evaluate(state, obs) - desired
        residuals.append(r)
        means.append(pi0_project(solve_spd(system, assemble_point_load(system.mesh, obs, r))).values)
    return StateAdjointBundle(*residuals, *means)


def greens_function_means(problem: ProblemData, system: StiffnessSystem) -> tuple[np.ndarray, np.ndarray]:
    """Element means of the discrete Green's function of every observation point.

    Row ``j`` of the ``k``-th matrix ``G_k`` is ``pi0(w)`` with ``A w =
    phi(obs_k[j])``: one solve per point.  Since ``A`` is symmetric and the
    P1 load of a constant is ``|T|/3`` per vertex, ``|T| G_k u`` is the
    state of ``u`` at the points and ``G_k^T r`` the element means of the
    adjoint loaded by ``r``; :func:`reduced_bundle` uses both.
    """
    mesh = system.mesh
    return tuple(
        np.array([pi0_project(solve_spd(system, assemble_point_load(mesh, x, 1.0))).values for x in obs])
        for obs in (problem.obs1, problem.obs2)
    )


def reduced_bundle(problem: ProblemData, means: tuple, u: PwcControl) -> StateAdjointBundle:
    """The bundle of ``u`` from :func:`greens_function_means`, with no PDE solve."""
    g1, g2 = means
    r1 = u.mesh.element_area * (g1 @ u.values) - problem.y1
    r2 = u.mesh.element_area * (g2 @ u.values) - problem.y2
    # G_k^T r_k as np.dot(r_k, G_k): stays on BLAS when G_k has one row, unlike G_k.T @ r_k
    return StateAdjointBundle(r1, r2, np.dot(r1, g1), np.dot(r2, g2))


def eval_objectives(problem: ProblemData, u: PwcControl, bundle: StateAdjointBundle) -> ObjectivePair:
    """Objective pair of ``u`` from the residuals cached in its bundle.

    The caller is responsible for ``bundle`` belonging to ``u``; no solve
    happens here, keeping solve counts auditable.
    """
    r1, r2 = bundle.residuals1, bundle.residuals2
    un2 = l2_norm(u) ** 2
    return ObjectivePair(
        j1=0.5 * float(r1 @ r1) + 0.5 * problem.lambda1 * un2,
        j2=0.5 * float(r2 @ r2) + 0.5 * problem.lambda2 * un2,
    )


def _check_weights(alpha) -> tuple[float, float]:
    a1, a2 = float(alpha[0]), float(alpha[1])
    if not (a1 > 0.0 and a2 > 0.0):
        raise ValueError("weights must be strictly positive")
    if not abs(a1 + a2 - 1.0) <= 1e-9:
        raise ValueError("weights must sum to one")
    return a1, a2


def _weighted_gradient(
    problem: ProblemData, bundle: StateAdjointBundle, u: PwcControl, c1: float, c2: float
) -> PwcControl:
    """Control-space gradient representer of ``c1 j1 + c2 j2``.

    Per triangle: ``sum_k c_k (mean_T(p_k) + lambda_k u_T)``, the unique
    piecewise-constant function realizing the derivative against
    piecewise-constant variations.
    """
    m1, m2 = bundle.adjoint_means1, bundle.adjoint_means2
    g = c1 * (m1 + problem.lambda1 * u.values) + c2 * (m2 + problem.lambda2 * u.values)
    return PwcControl(u.mesh, g)


def grad_wsm(
    problem: ProblemData, bundle: StateAdjointBundle, u: PwcControl, alpha
) -> PwcControl:
    """Gradient representer of the weighted-sum objective: coefficients ``alpha``."""
    return _weighted_gradient(problem, bundle, u, *_check_weights(alpha))


def grad_rpm(
    problem: ProblemData,
    bundle: StateAdjointBundle,
    u: PwcControl,
    zeta,
    j: ObjectivePair,
) -> PwcControl:
    """Gradient representer of the reference-point distance: coefficients ``j - zeta``."""
    return _weighted_gradient(problem, bundle, u, j.j1 - float(zeta[0]), j.j2 - float(zeta[1]))


def wsm_value(alpha, j: ObjectivePair) -> float:
    return float(alpha[0]) * j.j1 + float(alpha[1]) * j.j2


def rpm_value(zeta, j: ObjectivePair) -> float:
    return 0.5 * ((j.j1 - float(zeta[0])) ** 2 + (j.j2 - float(zeta[1])) ** 2)

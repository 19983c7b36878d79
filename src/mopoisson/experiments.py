"""Experiment orchestration: convergence tables, front studies, CSV export.

Reproduces the benchmark study: two interior observation points near
opposite corners of the unit square, bilateral bounds, and Pareto fronts
under four regularization configurations, with approximation errors of the
swept controls measured against a fine reference level.
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .control import BoxBounds, l2_error, read_control, write_control
from .fem import assemble_stiffness
from .mesh import MAX_LEVEL, build_uniform_mesh
from .objective import ProblemData, _check_reference_point, _check_weights
from .scalarize import BBConfig, ParetoFront, SolveReport, rpm_front, solve_rpm, solve_wsm, wsm_front

__all__ = [
    "ExperimentConfig",
    "ConvergenceTable",
    "benchmark_problem",
    "shared_system",
    "estimate_rate",
    "run_convergence_wsm",
    "run_convergence_rpm",
    "compute_front",
    "run_front",
    "export_csv",
]

_FLOAT_FMT = ".9g"
# Part of every cache key, so files of an older control format are misses.
_CACHE_FORMAT = "npy1"


def benchmark_problem(lambda1: float = 0.1, lambda2: float = 0.1) -> ProblemData:
    """The built-in two-point benchmark configuration, with bounds ``-7 <= u <= 15``."""
    return ProblemData(
        obs1=[(0.75, 0.25)],
        y1=[6.0],
        obs2=[(0.25, 0.75)],
        y2=[-2.0],
        lambda1=lambda1,
        lambda2=lambda2,
        bounds=BoxBounds(-7.0, 15.0),
    )


@functools.lru_cache(maxsize=None)
def shared_system(level: int) -> tuple:
    """Process-wide (mesh, stiffness system) pair of a level, built once.

    Sharing one system per level lets every study and front reuse its
    cached DST eigenvalues.  There is no lock: racing first calls build
    equal systems, which costs microseconds and changes no result.
    """
    mesh = build_uniform_mesh(level)
    return mesh, assemble_stiffness(mesh)


@dataclass
class ExperimentConfig:
    """Study layout: levels, reference level, sweep size, solver knobs.

    A ``reference_level`` of None sweeps fronts without an error series;
    convergence studies reject it.  ``points`` is the size of every front
    sweep; None means 50 points for WSM and 12 for RPM.
    """

    problem: ProblemData
    levels: tuple = (2, 3, 4, 5)
    reference_level: int | None = 8
    points: int | None = None
    eps: float = 1e-3
    h_perp: float = 0.2
    h_par: float = 0.2
    bb: BBConfig = field(default_factory=BBConfig)
    output_dir: Path = Path("out")
    cold_start: bool = False

    def __post_init__(self):
        self.levels = tuple(int(v) for v in self.levels)
        self.output_dir = Path(self.output_dir)
        if not self.levels:
            raise ValueError("at least one study level is required")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError("study levels must not repeat")
        if min(self.levels) < 0:
            raise ValueError("study levels must be nonnegative")
        if self.reference_level is not None and not max(self.levels) < self.reference_level <= MAX_LEVEL:
            raise ValueError(f"reference level must exceed every study level and be at most {MAX_LEVEL}")
        if self.points is not None and self.points < 2:
            raise ValueError("front sizes must be at least 2")


@dataclass
class ConvergenceTable:
    """Per-level approximation errors and fitted rates, one column per parameter."""

    hs: np.ndarray
    labels: list
    errors: np.ndarray
    rates: np.ndarray


def estimate_rate(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h).

    Returns NaN when fewer than two valid (finite, positive) points with
    distinct ``h`` remain.
    """
    hs = np.asarray(hs, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if hs.shape != errors.shape:
        raise ValueError("mesh sizes and errors differ in length")
    valid = np.isfinite(errors) & (errors > 0.0) & (hs > 0.0)
    if len(set(hs[valid].tolist())) < 2:
        return float("nan")
    return float(np.polyfit(np.log(hs[valid]), np.log(errors[valid]), 1)[0])


def _problem_fingerprint(problem: ProblemData) -> str:
    parts = []
    for arr in (problem.obs1, problem.y1, problem.obs2, problem.y2):
        parts.append(",".join(format(v, ".17g") for v in np.asarray(arr).ravel()))
    parts.append(format(problem.lambda1, ".17g"))
    parts.append(format(problem.lambda2, ".17g"))
    parts.append(format(problem.bounds.ua, ".17g"))
    parts.append(format(problem.bounds.ub, ".17g"))
    return "|".join(parts)


def _cache_key(config: ExperimentConfig, method: str, parameter, level: int) -> str:
    import hashlib  # loads OpenSSL; only convergence studies need it

    payload = "|".join(
        [
            _CACHE_FORMAT,
            method,
            ",".join(format(float(v), ".17g") for v in parameter),
            str(level),
            _problem_fingerprint(config.problem),
            format(config.bb.tol, ".17g"),
            str(config.bb.max_iter),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _reference_level(config: ExperimentConfig) -> int:
    if config.reference_level is None:
        raise ValueError("a convergence study needs a reference level")
    return config.reference_level


def _solve_at_level(
    config: ExperimentConfig, method: str, parameter, level: int
) -> SolveReport:
    mesh, system = shared_system(level)
    if method == "wsm":
        return solve_wsm(config.problem, system, parameter, config.bb)
    return solve_rpm(config.problem, system, parameter, config.bb)


def _reference_control(
    config: ExperimentConfig, method: str, parameter
) -> np.ndarray | None:
    """Reference-level solve, cached on disk keyed by data and parameter.

    Cache files are replaced atomically; an unreadable one, or one holding
    a control of another level, is a miss that is recomputed and overwritten.
    """
    level = _reference_level(config)
    cache_dir = config.output_dir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{method}_{_cache_key(config, method, parameter, level)}.ctrl"
    if path.exists():
        try:
            return read_control(path, level)
        except ValueError as exc:
            warnings.warn(f"ignoring unreadable reference cache file: {exc}", RuntimeWarning)
    report = _solve_at_level(config, method, parameter, level)
    if not report.converged:
        return None
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        write_control(report.control, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return report.control


def _run_convergence(config: ExperimentConfig, method: str, parameters, labels) -> ConvergenceTable:
    if not parameters:
        raise ValueError("a convergence study needs at least one parameter")
    errors = np.full((len(config.levels), len(parameters)), np.nan)
    for ip, parameter in enumerate(parameters):
        ref = _reference_control(config, method, parameter)
        if ref is None:
            continue
        for il, level in enumerate(config.levels):
            report = _solve_at_level(config, method, parameter, level)
            if report.converged:
                errors[il, ip] = l2_error(report.control, ref)
        del ref  # freed before the next reference solve
    hs = np.array([2.0 ** -level for level in config.levels])
    rates = np.array([estimate_rate(hs, errors[:, ip]) for ip in range(len(parameters))])
    return ConvergenceTable(hs=hs, labels=list(labels), errors=errors, rates=rates)


def run_convergence_wsm(config: ExperimentConfig, alphas) -> ConvergenceTable:
    """Approximation errors of the weighted-sum controls against the reference.

    Each weight pair is solved once on the reference level (cached to disk)
    and then on every study level; non-converged solves mark their cell NaN
    and the table is still emitted.  Every weight pair is checked before
    the first solve.
    """
    alphas = [_check_weights(a) for a in alphas]
    labels = [f"alpha=({a[0]:g},{a[1]:g})" for a in alphas]
    return _run_convergence(config, "wsm", alphas, labels)


def run_convergence_rpm(config: ExperimentConfig, zetas=None) -> ConvergenceTable:
    """Approximation errors of the reference-point controls.

    The reference points stay fixed across levels so coarse and reference
    solves approximate the same problem; by default they are those of
    :func:`reference_sweep_zetas`.  Explicit points are checked before the
    first solve.
    """
    if zetas is None:
        zetas = reference_sweep_zetas(config)
    zetas = [_check_reference_point(z) for z in zetas]
    labels = [f"zeta=({z[0]:g},{z[1]:g})" for z in zetas]
    return _run_convergence(config, "rpm", zetas, labels)


def reference_sweep_zetas(config: ExperimentConfig) -> list:
    """Reference points visited by the reference-level sweep at steps 2, 4, 7 and 9."""
    steps = (2, 4, 7, 9)
    front = compute_front(config, "rpm", _reference_level(config))
    rpm_params = [e.parameter for e in front.entries if e.method == "rpm"]
    if max(steps) > len(rpm_params):
        raise ValueError(
            f"reference sweep produced only {len(rpm_params)} points; step {max(steps)} unavailable"
        )
    return [rpm_params[s - 1] for s in steps]


def compute_front(config: ExperimentConfig, method: str, level: int) -> ParetoFront:
    """Sweep the ``method`` front on one level with the configured sweep settings."""
    mesh, system = shared_system(level)
    if method == "wsm":
        return wsm_front(config.problem, system, config.points or 50, config.eps, config.bb, config.cold_start)
    if method == "rpm":
        return rpm_front(
            config.problem,
            system,
            config.points or 12,
            config.h_perp,
            config.h_par,
            config.eps,
            config.bb,
            config.cold_start,
        )
    raise ValueError(f"unknown method {method!r}")


def run_front(config: ExperimentConfig, method: str) -> tuple[dict, np.ndarray | None]:
    """Fronts on every study level plus the reference level, if there is one.

    Returns the fronts keyed by level and the per-parameter front errors:
    Euclidean distances between the objective pairs of each study level and
    the reference level, matched by sweep position.  Without a reference
    level the errors are None.
    """
    fronts = {level: compute_front(config, method, level) for level in config.levels}
    if config.reference_level is None:
        return fronts, None
    fronts[config.reference_level] = compute_front(config, method, config.reference_level)

    ref_objectives = fronts[config.reference_level].objective_array()
    errors = np.full((len(config.levels), ref_objectives.shape[0]), np.nan)
    for i, level in enumerate(config.levels):
        objectives = fronts[level].objective_array()
        m = min(objectives.shape[0], ref_objectives.shape[0])
        errors[i, :m] = np.linalg.norm(objectives[:m] - ref_objectives[:m], axis=1)
    return fronts, errors


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), _FLOAT_FMT)
    return str(value)


def _front_rows(front: ParetoFront):
    header = ["param1", "param2", "j1", "j2", "iterations", "converged"]
    rows = []
    for entry in front.entries:
        report = entry.report
        rows.append(
            [
                _format_cell(float(entry.parameter[0])),
                _format_cell(float(entry.parameter[1])),
                _format_cell(report.objectives.j1),
                _format_cell(report.objectives.j2),
                str(report.iterations),
                "1" if report.converged else "0",
            ]
        )
    return header, rows


def _table_rows(table: ConvergenceTable):
    header = ["h"] + list(table.labels)
    rows = []
    for i, h in enumerate(table.hs):
        rows.append([_format_cell(float(h))] + [_format_cell(e) for e in table.errors[i]])
    rows.append(["rate"] + [_format_cell(r) for r in table.rates])
    return header, rows


def export_csv(data, path) -> None:
    """Write a front or convergence table as deterministic RFC-4180 CSV.

    A header row is followed by the data rows; floats carry 9 significant
    digits and identical inputs produce byte-identical files.
    """
    import csv

    if isinstance(data, ParetoFront):
        header, rows = _front_rows(data)
    elif isinstance(data, ConvergenceTable):
        header, rows = _table_rows(data)
    else:
        raise TypeError(f"cannot export {type(data).__name__} as CSV")
    path = Path(path)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


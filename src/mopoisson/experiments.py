"""Experiment orchestration: convergence tables, front studies, CSV export.

Reproduces the benchmark study: two interior observation points near
opposite corners of the unit square, bilateral bounds, and Pareto fronts
under four regularization configurations, with approximation errors of the
swept controls measured against a fine reference level.
"""

from __future__ import annotations

import hashlib
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .control import BoxBounds, PwcControl, l2_error, read_control, write_control
from .fem import assemble_stiffness
from .mesh import build_uniform_mesh
from .objective import ProblemData
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
    "load_csv",
]

_FLOAT_FMT = ".9g"
# Part of every cache key, so files of an older control format are misses.
_CACHE_FORMAT = "npy1"

_system_cache: dict[int, tuple] = {}
_system_lock = threading.Lock()


def benchmark_problem(
    lambda1: float = 0.1,
    lambda2: float = 0.1,
    bounds: tuple[float, float] = (-7.0, 15.0),
) -> ProblemData:
    """The built-in two-point benchmark configuration."""
    return ProblemData(
        obs1=[(0.75, 0.25)],
        y1=[6.0],
        obs2=[(0.25, 0.75)],
        y2=[-2.0],
        lambda1=lambda1,
        lambda2=lambda2,
        bounds=BoxBounds(*bounds),
    )


def shared_system(level: int) -> tuple:
    """Process-wide (mesh, stiffness system) cache keyed by level.

    Systems are immutable after assembly, so sharing them across studies
    amortizes the one-off factorization of the fine reference level.
    """
    with _system_lock:
        if level not in _system_cache:
            mesh = build_uniform_mesh(level)
            _system_cache[level] = (mesh, assemble_stiffness(mesh))
        return _system_cache[level]


@dataclass
class ExperimentConfig:
    """Study layout: levels, reference level, sweep sizes, solver knobs."""

    problem: ProblemData
    levels: tuple = (2, 3, 4, 5)
    reference_level: int = 8
    wsm_front_size: int = 50
    rpm_front_size: int = 12
    eps: float = 1e-3
    h_perp: float = 0.2
    h_par: float = 0.2
    bb: BBConfig = field(default_factory=BBConfig)
    output_dir: Path = Path("out")
    jobs: int = 1
    cold_start: bool = False

    def __post_init__(self):
        self.levels = tuple(int(v) for v in self.levels)
        self.output_dir = Path(self.output_dir)
        if not self.levels:
            raise ValueError("at least one study level is required")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError("study levels must not repeat")
        if self.reference_level <= max(self.levels):
            raise ValueError("reference level must exceed every study level")
        if min(self.wsm_front_size, self.rpm_front_size) < 2:
            raise ValueError("front sizes must be at least 2")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")


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
    if np.unique(hs[valid]).size < 2:
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


def _solve_at_level(
    config: ExperimentConfig, method: str, parameter, level: int
) -> SolveReport:
    mesh, system = shared_system(level)
    if method == "wsm":
        return solve_wsm(config.problem, system, parameter, config.bb)
    return solve_rpm(config.problem, system, parameter, config.bb)


def _reference_control(
    config: ExperimentConfig, method: str, parameter
) -> PwcControl | None:
    """Reference-level solve, cached on disk keyed by data and parameter.

    Cache files are replaced atomically; an unreadable one is a miss that
    is recomputed and overwritten.
    """
    cache_dir = config.output_dir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{method}_{_cache_key(config, method, parameter, config.reference_level)}.ctrl"
    if path.exists():
        try:
            return read_control(path)
        except ValueError as exc:
            warnings.warn(f"ignoring unreadable reference cache file: {exc}", RuntimeWarning)
    report = _solve_at_level(config, method, parameter, config.reference_level)
    if not report.converged:
        return None
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
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
    refs = [_reference_control(config, method, p) for p in parameters]

    def cell(args):
        index, parameter, level = args
        if refs[index] is None:
            return np.nan
        report = _solve_at_level(config, method, parameter, level)
        if not report.converged:
            return np.nan
        return l2_error(report.control, refs[index])

    tasks = [(ip, p, level) for level in config.levels for ip, p in enumerate(parameters)]
    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        flat = list(pool.map(cell, tasks))

    errors = np.array(flat).reshape(len(config.levels), len(parameters))
    hs = np.array([2.0 ** -level for level in config.levels])
    rates = np.array([estimate_rate(hs, errors[:, ip]) for ip in range(len(parameters))])
    return ConvergenceTable(hs=hs, labels=list(labels), errors=errors, rates=rates)


def run_convergence_wsm(config: ExperimentConfig, alphas) -> ConvergenceTable:
    """Approximation errors of the weighted-sum controls against the reference.

    Each weight pair is solved once on the reference level (cached to disk)
    and then on every study level; non-converged solves mark their cell NaN
    and the table is still emitted.
    """
    alphas = [tuple(float(v) for v in a) for a in alphas]
    labels = [f"alpha=({a[0]:g},{a[1]:g})" for a in alphas]
    return _run_convergence(config, "wsm", alphas, labels)


def run_convergence_rpm(config: ExperimentConfig, zetas=None) -> ConvergenceTable:
    """Approximation errors of the reference-point controls.

    The reference points stay fixed across levels so coarse and reference
    solves approximate the same problem; by default they are taken from the
    reference-level sweep at steps 2, 4, 7, and 9.
    """
    if zetas is None:
        zetas = reference_sweep_zetas(config)
    zetas = [tuple(float(v) for v in z) for z in zetas]
    labels = [f"zeta=({z[0]:g},{z[1]:g})" for z in zetas]
    return _run_convergence(config, "rpm", zetas, labels)


def reference_sweep_zetas(config: ExperimentConfig, steps=(2, 4, 7, 9)) -> list:
    """Reference points visited by the reference-level sweep at given steps."""
    front = compute_front(config, "rpm", config.reference_level)
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
        return wsm_front(
            config.problem, system, config.wsm_front_size, config.eps, config.bb, config.cold_start
        )
    if method == "rpm":
        return rpm_front(
            config.problem,
            system,
            config.rpm_front_size,
            config.h_perp,
            config.h_par,
            config.eps,
            config.bb,
            config.cold_start,
        )
    raise ValueError(f"unknown method {method!r}")


def run_front(config: ExperimentConfig, method: str) -> tuple[dict, np.ndarray]:
    """Fronts on every study level plus the reference level.

    Returns the fronts keyed by level and the per-parameter front errors:
    Euclidean distances between the objective pairs of each study level and
    the reference level, matched by sweep position.
    """
    fronts = {}
    for level in list(config.levels) + [config.reference_level]:
        fronts[level] = compute_front(config, method, level)

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


def load_csv(path) -> tuple[list, list]:
    """Read back an exported CSV: (header, rows of strings)."""
    import csv

    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    return rows[0], rows[1:]

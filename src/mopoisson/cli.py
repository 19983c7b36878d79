"""Command-line interface for single solves, front sweeps, and studies.

Exit codes: 0 on success, 2 for invalid arguments or an ``--out``/``--config``
path that cannot be used, 3 when a linear solve fails its residual check or
a single-solve or ``ideal-vector`` subcommand fails to converge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .control import BoxBounds, write_control
from .experiments import ExperimentConfig, export_csv, run_convergence, run_front, shared_system, solve_at_level
from .fem import SolverError
from .objective import ProblemData, check_parameter
from .scalarize import BBConfig, ideal_vector


def _parse_pair(text: str, name: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{name} expects two comma-separated values, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_pairs(text: str, name: str) -> list[tuple[float, float]]:
    return [_parse_pair(chunk, name) for chunk in text.split(";") if chunk.strip()]


def _parse_observations(text: str, name: str) -> tuple[list, list]:
    """Parse ``x,y=v[;x,y=v...]`` into point and value lists."""
    points, values = [], []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords, _, value = chunk.partition("=")
        if not value:
            raise ValueError(f"{name} entries look like x,y=v, got {chunk!r}")
        points.append(_parse_pair(coords, name))
        values.append(float(value))
    if not points:
        raise ValueError(f"{name} must contain at least one observation")
    return points, values


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="key=value file; explicit flags override it")
    parser.add_argument("--level", type=int, default=5, help="mesh level (h = 2^-level)")
    parser.add_argument("--ref-level", type=int, default=8, help="reference mesh level")
    parser.add_argument("--levels", default="2,3,4,5", help="study levels for convergence tables")
    parser.add_argument("--lambda", dest="lambdas", default="0.1,0.1", help="lambda1,lambda2")
    parser.add_argument("--bounds", default="-7,15", help="control bounds ua,ub")
    parser.add_argument("--obs1", default="0.75,0.25=6", help="first observation set, x,y=v[;...]")
    parser.add_argument("--obs2", default="0.25,0.75=-2", help="second observation set")
    parser.add_argument("--tol", type=float, default=1e-8, help="BB stopping tolerance")
    parser.add_argument("--max-iter", type=int, default=5000, help="BB iteration cap")
    parser.add_argument("--eps", type=float, default=1e-3, help="endpoint weight offset")
    parser.add_argument("--h-perp", type=float, default=0.2, help="reference-point offset (perpendicular)")
    parser.add_argument("--h-par", type=float, default=0.2, help="reference-point offset (parallel)")
    parser.add_argument("--points", type=int, default=None, help="sweep size (default 50 WSM, 12 RPM)")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    parser.add_argument("--cold-start", action="store_true", help="disable warm starts along sweeps")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mopoisson",
        description="Pareto fronts for bicriterial pointwise-tracking control of the Poisson equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-wsm", help="solve one weighted-sum problem")
    p.add_argument("--alpha", required=True, help="weights a1,a2 (positive, summing to 1)")
    p.set_defaults(run=_run_single, method="wsm")
    _add_shared_flags(p)

    p = sub.add_parser("solve-rpm", help="solve one reference-point problem")
    p.add_argument("--zeta", required=True, help="reference point z1,z2")
    p.set_defaults(run=_run_single, method="rpm")
    _add_shared_flags(p)

    p = sub.add_parser("front", help="sweep a Pareto front at one level")
    p.add_argument("--method", choices=["wsm", "rpm"], required=True)
    p.set_defaults(run=_run_front)
    _add_shared_flags(p)

    p = sub.add_parser("convergence", help="error table against the reference level")
    p.add_argument("--method", choices=["wsm", "rpm"], required=True)
    p.add_argument("--alphas", help="weight pairs a1,a2;...; default: run_convergence's experiments.DEFAULT_WEIGHTS")
    p.add_argument("--zetas", help="reference points z1,z2;...; default: run_convergence's reference sweep")
    p.set_defaults(run=_run_convergence)
    _add_shared_flags(p)

    p = sub.add_parser("ideal-vector", help="componentwise objective minima")
    p.set_defaults(run=_run_ideal)
    _add_shared_flags(p)

    return parser


def _splice_config_file(argv: list) -> list:
    """Insert the ``--config`` file's entries as flags right after the subcommand.

    Argparse keeps the last value of a repeated flag, so explicit flags,
    which follow the inserted ones, override the file.  ``key=true`` becomes
    a bare flag and ``key=false`` is dropped.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", type=Path)
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    if not path.exists():
        raise ValueError(f"config file {path} does not exist")
    tokens = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if not value:
            raise ValueError(f"config line {line!r} is not key=value")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if value == "true":
            tokens.append(flag)
        elif value != "false":
            tokens.append(f"{flag}={value}")
    return argv[:1] + tokens + argv[1:]


def _problem_from_args(args) -> ProblemData:
    obs1, y1 = _parse_observations(args.obs1, "--obs1")
    obs2, y2 = _parse_observations(args.obs2, "--obs2")
    lambda1, lambda2 = _parse_pair(args.lambdas, "--lambda")
    ua, ub = _parse_pair(args.bounds, "--bounds")
    return ProblemData(
        obs1=obs1, y1=y1, obs2=obs2, y2=y2,
        lambda1=lambda1, lambda2=lambda2, bounds=BoxBounds(ua, ub),
    )


def _experiment_config(args, levels, reference_level=None) -> ExperimentConfig:
    """Every subcommand's problem, solver and sweep settings, checked before any solve."""
    if args.jobs < 1:
        raise ValueError("--jobs must be positive")
    return ExperimentConfig(
        problem=_problem_from_args(args),
        levels=levels,
        reference_level=reference_level,
        eps=args.eps,
        h_perp=args.h_perp,
        h_par=args.h_par,
        bb=BBConfig(tol=args.tol, max_iter=args.max_iter),
        output_dir=args.out,
        cold_start=args.cold_start,
        points=args.points,
    )


def _print_report(label: str, report) -> None:
    print(
        f"{label}: j1={report.objectives.j1:.9g} j2={report.objectives.j2:.9g} "
        f"iterations={report.iterations} residual={report.final_residual:.3e} "
        f"converged={report.converged}"
    )


def _run_single(args) -> int:
    config = _experiment_config(args, (args.level,))
    method = args.method
    parameter = _parse_pair(args.alpha, "--alpha") if method == "wsm" else _parse_pair(args.zeta, "--zeta")
    report = solve_at_level(config, method, parameter, args.level)
    _print_report(f"{method} level={args.level} param=({parameter[0]:g},{parameter[1]:g})", report)
    args.out.mkdir(parents=True, exist_ok=True)
    control_path = args.out / f"solution_{method}_{parameter[0]:g}_{parameter[1]:g}_L{args.level}.ctrl"
    write_control(report.control, control_path)
    print(f"control written to {control_path}")
    return 0 if report.converged else 3


def _run_front(args) -> int:
    # a --ref-level at or below --level asks for no reference and no error series
    reference_level = args.ref_level if args.ref_level > args.level else None
    config = _experiment_config(args, (args.level,), reference_level)
    fronts, errors = run_front(config, args.method)
    args.out.mkdir(parents=True, exist_ok=True)
    tag = f"{config.problem.lambda1:g}_{config.problem.lambda2:g}"
    front_path = args.out / f"front_{args.method}_{tag}.csv"
    export_csv(fronts[args.level], front_path)
    print(f"front ({len(fronts[args.level].entries)} points) written to {front_path}")
    if errors is not None:
        error_path = args.out / f"front_error_{args.method}_{tag}.csv"
        export_csv(dict(zip(config.levels, errors)), error_path)
        print(f"front errors written to {error_path}")
    return 0


def _run_convergence(args) -> int:
    levels = tuple(int(v) for v in args.levels.split(","))
    config = _experiment_config(args, levels, args.ref_level)
    given = {}  # every given list is checked, also the one of the other method
    for method, flag, text in (("wsm", "--alphas", args.alphas), ("rpm", "--zetas", args.zetas)):
        if text is not None:
            given[method] = [check_parameter(method, p) for p in _parse_pairs(text, flag)]
    table = run_convergence(config, args.method, given.get(args.method))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"convergence_{args.method}.csv"
    export_csv(table, path)
    for note in table.notes:
        print(f"note: {note}", file=sys.stderr)
    for label, rate in zip(table.labels, table.rates):
        print(f"{label}: rate={rate:.3g}")
    print(f"table written to {path}")
    return 0


def _run_ideal(args) -> int:
    config = _experiment_config(args, (args.level,))
    mesh, system = shared_system(args.level)
    vector = ideal_vector(config.problem, system, config.eps, config.bb)
    print(f"ideal vector: ({vector[0]:.9g}, {vector[1]:.9g})")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(_splice_config_file(argv))
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()

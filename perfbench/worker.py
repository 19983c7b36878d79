"""One fresh benchmark process: set up, run units of a workload, check them.

``run.py`` starts it as ``python3 perfbench/worker.py '<job json>'`` and reads
one JSON object from the last line of its standard output.  A fresh
process per worker keeps ``shared_system``'s process-wide cache from
leaking between runs.  The job names the workload, its desired values
and how long to run untraced and traced units; ``"mode": "setup"`` only
sets up and reports the set-up time.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spec  # noqa: E402


def _set_up(params: dict) -> dict:
    """Import the program and build what the timed phase must not pay for."""
    import mopoisson
    from mopoisson import cli, experiments

    if Path(mopoisson.__file__).resolve().parent != HERE.parent / "src" / "mopoisson":
        raise RuntimeError(f"imported mopoisson from {mopoisson.__file__}, not from this checkout")
    state = {"cli": cli}
    if params["kind"] != "cli_study":
        # A CLI user pays system builds on every call, so the CLI study sets up nothing more.
        _, system = experiments.shared_system(params["level"])
        state["system"] = system.factorize()
    return state


def _problem(lambdas, y1: float, y2: float):
    from mopoisson import ProblemData, benchmark_problem

    paper = benchmark_problem(*lambdas)
    return ProblemData(
        obs1=paper.obs1, y1=[y1], obs2=paper.obs2, y2=[y2],
        lambda1=paper.lambda1, lambda2=paper.lambda2, bounds=paper.bounds,
    )


def _front_output(front) -> list:
    return [
        [e.method, list(e.parameter), e.report.objectives.j1, e.report.objectives.j2, e.report.converged]
        for e in front.entries
    ]


# -- units of work -------------------------------------------------------


def _unit_rpm_front(params, state, job, tracer):
    from mopoisson import scalarize

    problem = _problem(params["lambdas"], *job["y"])
    start = time.perf_counter()
    front = scalarize.rpm_front(problem, state["system"], params["points"], params["h_perp"], params["h_par"])
    wall = time.perf_counter() - start
    return {"wall_s": wall, "output": [_front_output(front)]}


def _unit_wsm_fronts(params, state, job, tracer):
    from mopoisson import scalarize

    problems = [_problem(lambdas, *job["y"]) for lambdas in params["lambda_configs"]]
    start = time.perf_counter()
    fronts = [scalarize.wsm_front(p, state["system"], params["points"]) for p in problems]
    wall = time.perf_counter() - start
    return {"wall_s": wall, "output": [_front_output(f) for f in fronts]}


def cli_argv(params: dict, seed: int, y, out: str) -> list:
    """The study's command line; seeds other than 0 pass their desired values as flags."""
    argv = [
        "convergence", "--method", "wsm",
        "--levels", ",".join(str(v) for v in params["levels"]),
        "--ref-level", str(params["ref_level"]),
        "--jobs", str(params["jobs"]),
        "--out", out,
    ]
    if seed != 0:
        argv += ["--obs1", f"0.75,0.25={y[0]!r}", "--obs2", f"0.25,0.75={y[1]!r}"]
    return argv


def _unit_cli_study(params, state, job, tracer):
    main = state["cli"].main
    if tracer.timed:
        main = tracer.span("cli.main", main)
    out = tempfile.mkdtemp(prefix="cli-", dir=job["tmp"])
    try:
        argv = cli_argv(params, job["seed"], job["y"], out)
        csv_path = Path(out) / "convergence_wsm.csv"
        passes = []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = main(argv)
                elapsed = time.perf_counter() - start
            tracer.end_phase()
            passes.append((code, elapsed, csv_path.read_bytes() if csv_path.exists() else b""))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    (code1, wall, csv1), (code2, rerun, csv2) = passes
    return {
        "wall_s": wall,
        "rerun_s": rerun,
        "csv_bytes": len(csv1) + len(csv2),
        "output": {"codes": [code1, code2], "csv": [csv1.decode(), csv2.decode()]},
    }


UNITS = {"rpm_front": _unit_rpm_front, "wsm_fronts": _unit_wsm_fronts, "cli_study": _unit_cli_study}


# -- output checks -------------------------------------------------------


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def check_fronts(params: dict, output: list, expected, seed: int) -> list:
    """Messages for every failed subproblem of the fronts of one unit."""
    failures = []
    for f, front in enumerate(output):
        bad = {}
        if params["kind"] == "wsm_fronts" and len(front) != params["points"]:
            bad.update((k, f"front has {len(front)} points, not {params['points']}") for k in range(len(front)))
        for k, (_, _, j1, j2, converged) in enumerate(front):
            if not converged:
                bad[k] = "not converged"
            if k > 0 and (j1 < front[k - 1][2] - spec.PARETO_SLACK or j2 > front[k - 1][3] + spec.PARETO_SLACK):
                bad[k] = "not Pareto-ordered after its predecessor"
        for a, ea in enumerate(front):
            for b, eb in enumerate(front):
                no_worse = ea[2] <= eb[2] + spec.PARETO_SLACK and ea[3] <= eb[3] + spec.PARETO_SLACK
                better = ea[2] < eb[2] - spec.PARETO_SLACK or ea[3] < eb[3] - spec.PARETO_SLACK
                if a != b and no_worse and better:
                    bad[b] = f"dominated by point {a}"
        if seed == 0 and not params["quick"]:
            if params["kind"] == "rpm_front":
                for step, zeta in spec.PUBLISHED_ZETA.items():
                    if step >= len(front) - 1:
                        bad.update((k, f"sweep ended before step {step}") for k in range(len(front)))
                    elif not all(_close(g, w, spec.ZETA_BAND) for g, w in zip(front[step][1], zeta)):
                        bad[step] = f"zeta {front[step][1]} is not within 5% of published {zeta}"
            want = expected[f]
            if len(want) != len(front):
                bad.update((k, f"{len(front)} points, recorded {len(want)}") for k in range(len(front)))
            for k, (entry, ref) in enumerate(zip(front, want)):
                if not (_close(entry[2], ref[0], spec.EXPECTED_RTOL) and _close(entry[3], ref[1], spec.EXPECTED_RTOL)):
                    bad[k] = f"objectives ({entry[2]}, {entry[3]}) differ from recorded {tuple(ref)}"
        failures += [f"front {f} point {k}: {why}" for k, why in sorted(bad.items())]
    return failures


def parse_table(text: str) -> tuple[list, list]:
    """Error rows (one per level, one value per alpha) and rates of a convergence CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 3 or rows[-1][0] != "rate":
        raise ValueError("not a convergence table")
    cells = [[float(v) for v in row[1:]] for row in rows[1:-1]]
    return cells, [float(v) for v in rows[-1][1:]]


def check_study(params: dict, output: dict, expected, seed: int) -> list:
    """Messages for every failed table cell of both passes of one unit."""
    n_cells = len(params["levels"]) * len(spec.ALPHAS)
    failures = []
    for p, (code, text) in enumerate(zip(output["codes"], output["csv"])):
        if code != 0:
            failures += [f"pass {p}: exit code {code}"] * n_cells
            continue
        if p == 1 and text != output["csv"][0]:
            failures += ["pass 1: cached CSV differs from the cold pass's"] * n_cells
            continue
        try:
            cells, rates = parse_table(text)
        except ValueError as exc:
            failures += [f"pass {p}: {exc}"] * n_cells
            continue
        for row, level in enumerate(params["levels"]):
            for col, alpha in enumerate(spec.ALPHAS):
                got = cells[row][col]
                where = f"pass {p} h=2^-{level} alpha={alpha}"
                if not (math.isfinite(got) and got > 0.0):
                    failures.append(f"{where}: error {got} is not finite and positive")
                elif seed == 0 and not params["quick"]:
                    published = spec.PUBLISHED_WSM_TABLE[alpha][row]
                    lo, hi = spec.RATE_BAND
                    if not _close(got, published, spec.CELL_BAND):
                        failures.append(f"{where}: error {got} is not within 25% of published {published}")
                    elif not lo <= rates[col] <= hi:
                        failures.append(f"{where}: rate {rates[col]} outside {spec.RATE_BAND}")
                    elif not _close(got, expected["cells"][row][col], spec.EXPECTED_RTOL):
                        failures.append(f"{where}: error {got} differs from recorded {expected['cells'][row][col]}")
    return failures


# -- running units -----------------------------------------------------


def _run_units(params, state, job, traced: bool, budget: float, min_units: int, expected) -> list:
    from tracing import Tracer

    tracer = Tracer(timed=traced, ref_level=params.get("ref_level"))
    units = []
    spent = 0.0
    with tracer:
        while len(units) < min_units or spent < budget:
            tracer.reset()
            unit = UNITS[params["kind"]](params, state, job, tracer)
            csv_bytes = unit.pop("csv_bytes", 0)
            spent += unit["wall_s"] + unit.get("rerun_s", 0.0)
            if params["kind"] == "cli_study":
                failures = check_study(params, unit.pop("output"), expected, job["seed"])
            else:
                failures = check_fronts(params, unit.pop("output"), expected, job["seed"])
            counts = tracer.counts()
            unit.update(traced=traced, counts=counts, failures=failures)
            unit["failed"] = min(len(failures), counts["scalarize.subproblems"])
            if traced:
                unit["layers"] = dict(tracer.layers(), **{"cli.csv_bytes": csv_bytes})
                unit["samples"] = dict(tracer.samples)
            units.append(unit)
    return units


def _record(params, state, job) -> dict:
    """One untraced unit's objectives (or table) and counts, for expected.json."""
    from tracing import Tracer

    with Tracer(timed=False, ref_level=params.get("ref_level")) as tracer:
        output = UNITS[params["kind"]](params, state, job, tracer)["output"]
    if params["kind"] == "cli_study":
        cells, rates = parse_table(output["csv"][0])
        output = {"cells": cells, "rates": rates}
    else:
        output = [[[j1, j2] for _, _, j1, j2, _ in front] for front in output]
    return {"output": output, "counts": tracer.counts()}


def main(argv: list) -> int:
    job = json.loads(argv[1])
    params = spec.workload(job["workload"], job["quick"])
    state = _set_up(params)
    setup_s = time.perf_counter() - _START
    result = {"setup_s": setup_s}
    if job["mode"] == "units":
        expected = None
        if job["seed"] == 0 and not params["quick"]:
            expected = json.loads((HERE / "expected.json").read_text())[params["name"]]["output"]
        units = []
        if job.get("untraced") is not None:
            units += _run_units(params, state, job, False, job["untraced"], job.get("min_units", 1), expected)
        if job.get("traced") is not None:
            units += _run_units(params, state, job, True, job["traced"], 1, expected)
        import numpy
        import scipy

        result.update(units=units, numpy=numpy.__version__, scipy=scipy.__version__)
    elif job["mode"] == "record":
        result.update(_record(params, state, job))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

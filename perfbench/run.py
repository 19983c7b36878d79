"""Benchmark of mopoisson: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload front_rpm_L8 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Each unit of work runs in fresh worker
processes (``worker.py``); this process only starts them, aggregates
their reports and prints, before the final JSON line, the environment,
the deterministic counts, any failed output checks and every metric by
name and unit.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones.  ``--quick`` runs
the short level <= 5 variants the benchmark's own tests use.

Exit codes: 0 when every output check passed, 1 when one failed (the
result line says ``"correct": false``), 2 when the benchmark could not
run at all, e.g. outside a checkout that holds ``src/mopoisson``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
# Every run, its workers included, ends within this many seconds.
DEADLINE_S = 170.0
# Set-up is sampled in this many fresh processes; setup_s is their median.
SETUP_SAMPLES = 3


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker(job: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(params: dict, seed: int, seconds: float, trace: bool) -> list:
    """Worker reports; at least SETUP_SAMPLES of them carry a set-up time."""
    deadline = time.monotonic() + DEADLINE_S
    job = {
        "workload": params["name"], "quick": params["quick"], "seed": seed,
        "y": list(spec.desired_values(seed, params["jitter"])), "tmp": str(TMP), "mode": "units",
    }
    reports = []
    if params["kind"] == "cli_study":
        # One cold and one cached pass per process: a second cold pass in the
        # same process would find the systems already built.
        spent = 0.0
        while spent < seconds or (trace and len(reports) < 2):
            traced = trace and len(reports) % 2 == 1
            report = _worker(dict(job, **{"traced" if traced else "untraced": 0.0}), deadline)
            spent += sum(u["wall_s"] + u["rerun_s"] for u in report["units"])
            reports.append(report)
    elif trace:
        reports.append(_worker(dict(job, untraced=seconds / 2, traced=seconds / 2), deadline))
    else:
        # Two units at least, so rerun_s always has a warm repeat to measure.
        reports.append(_worker(dict(job, untraced=seconds, min_units=2), deadline))
    while len(reports) < SETUP_SAMPLES:
        reports.append(_worker(dict(job, mode="setup"), deadline))
    return reports


def tail_percentile(samples: list) -> tuple[float, float]:
    """(q, value): the highest percentile with at least ten samples beyond it.

    Nearest rank; with ten samples or fewer no such percentile exists and
    the median is returned as (50, median).
    """
    n = len(samples)
    if n <= 10:
        return 50.0, statistics.median(samples)
    q = 100 * (n - 10) // n
    rank = max(1, -(-q * n // 100))
    return float(q), sorted(samples)[rank - 1]


def end_to_end(params: dict, reports: list) -> dict:
    units = [u for r in reports for u in r.get("units", []) if not u["traced"]]
    walls = [u["wall_s"] for u in units]
    if params["kind"] == "cli_study":
        reruns = [u["rerun_s"] for u in units]
    else:
        # No result cache on this path: a rerun is a warm repeat in the same process.
        reruns = walls[1:]
    timed = sum(u["wall_s"] + u.get("rerun_s", 0.0) for u in units)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "wall_s": statistics.median(walls),
        "rerun_s": statistics.median(reruns),
        "subproblems_per_s": sum(u["counts"]["scalarize.subproblems"] for u in units) / timed,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports if r.get("units")),
    }


def per_layer(reports: list) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced units) and notes on percentiles."""
    units = [u for r in reports for u in r.get("units", [])]
    traced = [u for u in units if u["traced"]]
    metrics = {k: statistics.median(u["layers"][k] for u in traced) for k in traced[0]["layers"]}
    notes = {}
    for span, prefix in (("fem.solve", "fem.solve_ms"), ("scalarize.subproblem", "scalarize.subproblem_ms")):
        samples = [1e3 * s for u in traced for s in u["samples"].get(span, [])]
        if not samples:
            metrics[f"{prefix}.p50"] = metrics[f"{prefix}.tail"] = 0.0
            continue
        q, tail = tail_percentile(samples)
        metrics[f"{prefix}.p50"] = statistics.median(samples)
        metrics[f"{prefix}.tail"] = tail
        notes[f"{prefix}.tail"] = f"p{q:g} of {len(samples)} samples"
    untraced_walls = [u["wall_s"] for u in units if not u["traced"]]
    metrics["trace.overhead_s"] = statistics.median(u["wall_s"] for u in traced) - statistics.median(untraced_walls)
    return metrics, notes


def counts_section(params: dict, seed: int, reports: list) -> dict:
    units = [u for r in reports for u in r.get("units", [])]
    values = units[0]["counts"]
    section = {"values": values, "deterministic": all(u["counts"] == values for u in units)}
    if seed == 0 and not params["quick"]:
        recorded = json.loads((HERE / "expected.json").read_text())[params["name"]]["counts"]
        section["seed_values"] = recorded
        section["match_seed"] = values == recorded
    return section


def _query(argv: list):
    """Stripped standard output of a system query, or None where it cannot run."""
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return out or None


def environment(reports: list) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mopoisson").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cache = {level: _query(["getconf", f"LEVEL{level}_CACHE_SIZE"]) for level in (2, 3)}
    with_units = next(r for r in reports if "units" in r)
    return {
        "git_rev": _query(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": with_units["numpy"],
        "scipy": with_units["scipy"],
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
        "l2_bytes": cache[2],
        "l3_bytes": cache[3],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="short level <= 5 variant")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mopoisson" / "__init__.py").is_file():
        print(f"error: no src/mopoisson next to {HERE.name}/; run from a checkout", file=sys.stderr)
        return 2

    params = spec.workload(args.workload, args.quick)
    TMP.mkdir(exist_ok=True)
    try:
        reports = collect(params, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    units = [u for r in reports for u in r.get("units", [])]
    attempted = sum(u["counts"]["scalarize.subproblems"] for u in units)
    failed = sum(u["failed"] for u in units)
    failures = [f for u in units for f in u["failures"]]
    if args.trace:
        metrics, notes = per_layer(reports)
        catalogue = {name: unit for name, unit, *_ in spec.PER_LAYER}
        for name, _, _, moves, on in spec.PER_LAYER:
            notes[name] = "; ".join(filter(None, [notes.get(name), f"should move {moves} on {on}"]))
    else:
        metrics, notes = end_to_end(params, reports), {}
        catalogue = {m["name"]: m["unit"] for m in spec.END_TO_END}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} quick={args.quick}")
    print("env " + json.dumps(environment(reports)))
    print("counts " + json.dumps(counts_section(params, args.seed, reports)))
    for message in failures[:20]:
        print(f"check failed: {message}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} subproblems)")
    for name, unit in catalogue.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {metrics[name]:.6g} {unit}{note}")
    correct = failed == 0 and not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in catalogue.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

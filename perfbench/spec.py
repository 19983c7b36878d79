"""Workloads, seeded inputs, published values and metric catalogue.

Pure Python on purpose: ``run.py`` imports this module without loading
numpy or mopoisson, so the orchestrating process stays small.
"""

from __future__ import annotations

import random

# Desired values of the paper's benchmark problem (seed 0).
PAPER_Y1 = 6.0
PAPER_Y2 = -2.0
# Other seeds scale y1 and y2 by independent factors in [1 - jitter, 1 + jitter].
# The RPM sweep stops once its reference point passes the end of the front, and
# at +-1% that already flips its length between 12 and 13 subproblems on some
# seeds, so the RPM workload jitters less: otherwise the seed, not the program,
# would set its wall time.
JITTER = 0.05
RPM_JITTER = 0.003

LAMBDA_CONFIGS = [(1.0, 1.0), (1.0, 0.1), (0.1, 1.0), (0.1, 0.1)]
ALPHAS = [(0.2, 0.8), (0.4, 0.6), (0.6, 0.4), (0.8, 0.2)]

WORKLOADS = {
    "front_rpm_L8": {
        "kind": "rpm_front",
        "level": 8,
        "points": 12,
        "h_perp": 0.2,
        "h_par": 0.2,
        "lambdas": (0.1, 0.1),
        "jitter": RPM_JITTER,
        "why": "paper's 12-point RPM front at level 8 with warm starts: bound by LU solves, "
        "so it shows every change to the fine-level solve path",
    },
    "fronts_wsm_L5": {
        "kind": "wsm_fronts",
        "level": 5,
        "points": 50,
        "lambda_configs": LAMBDA_CONFIGS,
        "jitter": JITTER,
        "why": "four 50-point WSM fronts at level 5: bound by per-call overhead (point loads, "
        "sparse builds), which a faster LU barely moves",
    },
    "study_wsm_cli": {
        "kind": "cli_study",
        "levels": (2, 3, 4, 5),
        "ref_level": 8,
        "jobs": 2,
        "jitter": JITTER,
        "why": "CLI WSM convergence study, cold then cached against one --out: writes the "
        "reference cache in one pass and reads it in the other, on two threads",
    },
}

# Short variants at level <= 5 for the benchmark's own smoke tests.
QUICK = {
    "front_rpm_L8": {"level": 5},
    "fronts_wsm_L5": {"level": 4, "points": 10},
    "study_wsm_cli": {"levels": (2, 3), "ref_level": 5},
}

# Reference points the paper publishes for steps 2, 4, 7 and 9 of the RPM sweep.
PUBLISHED_ZETA = {2: (16.89, 2.58), 4: (17.04, 2.21), 7: (17.49, 1.82), 9: (17.88, 1.71)}
ZETA_BAND = 0.05

# The paper's WSM convergence table: errors at h = 2^-2..2^-5 and the rate, per alpha.
PUBLISHED_WSM_TABLE = {
    (0.2, 0.8): [0.727125, 0.399550, 0.209558, 0.107604],
    (0.4, 0.6): [0.994289, 0.555188, 0.300159, 0.155751],
    (0.6, 0.4): [1.312741, 0.704527, 0.353305, 0.173634],
    (0.8, 0.2): [1.580559, 0.790838, 0.389034, 0.193365],
}
CELL_BAND = 0.25
RATE_BAND = (0.85, 1.15)

# Agreement with the objectives recorded from the seed commit (expected.json).
EXPECTED_RTOL = 1e-6
# Slack of the Pareto-order and nondominance checks.
PARETO_SLACK = 1e-8

# Timing bounds sit at the contract's 0.25 maximum: on the 2-vCPU host the
# benchmark was defined on, the speed of the same single-threaded loop wanders
# by +-30% over tens of seconds (CPU time tracks wall time, so it is not
# steal), and a run's median cannot average that out.
# failed_frac is reported by the result line's "failed" of "attempted"
# instead: it is 0 whenever the program is correct, and a metric here must
# never be 0.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rerun_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "subproblems_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

# name, unit, better, the end-to-end metric it should move, and on which workloads.
PER_LAYER = [
    ("mesh.build_calls", "count", "lower", "rerun_s", "study_wsm_cli"),
    ("mesh.build_s", "s", "lower", "rerun_s", "study_wsm_cli"),
    ("mesh.locate_calls", "count", "lower", "wall_s", "fronts_wsm_L5"),
    ("mesh.locate_s", "s", "lower", "wall_s", "fronts_wsm_L5"),
    ("fem.assemble_s", "s", "lower", "setup_s; wall_s", "front_rpm_L8; study_wsm_cli"),
    ("fem.factorize_s", "s", "lower", "setup_s; wall_s", "front_rpm_L8; study_wsm_cli"),
    ("fem.solve_calls", "count", "lower", "wall_s, subproblems_per_s", "front_rpm_L8, fronts_wsm_L5"),
    ("fem.solve_s", "s", "lower", "wall_s, subproblems_per_s", "front_rpm_L8, fronts_wsm_L5"),
    ("fem.solve_ms.p50", "ms", "lower", "wall_s, subproblems_per_s", "front_rpm_L8, fronts_wsm_L5"),
    ("fem.point_load_calls", "count", "lower", "wall_s", "fronts_wsm_L5"),
    ("fem.point_load_s", "s", "lower", "wall_s", "fronts_wsm_L5"),
    ("fem.pwc_load_s", "s", "lower", "wall_s", "fronts_wsm_L5"),
    ("fem.evaluate_calls", "count", "lower", "wall_s", "fronts_wsm_L5"),
    ("fem.evaluate_s", "s", "lower", "wall_s", "fronts_wsm_L5"),
    ("control.pi0_calls", "count", "lower", "wall_s", "front_rpm_L8"),
    ("control.pi0_s", "s", "lower", "wall_s", "front_rpm_L8"),
    ("control.write_s", "s", "lower", "wall_s", "study_wsm_cli"),
    ("control.write_bytes", "bytes", "lower", "wall_s", "study_wsm_cli"),
    ("control.read_s", "s", "lower", "rerun_s", "study_wsm_cli"),
    ("control.l2_error_s", "s", "lower", "rerun_s", "study_wsm_cli"),
    ("objective.state_s", "s", "lower", "wall_s", "front_rpm_L8, fronts_wsm_L5"),
    ("objective.adjoints_s", "s", "lower", "wall_s", "front_rpm_L8, fronts_wsm_L5"),
    ("objective.grad_s", "s", "lower", "wall_s", "front_rpm_L8, fronts_wsm_L5"),
    ("scalarize.subproblems", "count", "higher", "wall_s, failed_frac", "all"),
    ("scalarize.bb_iterations", "count", "lower", "wall_s, failed_frac", "all"),
    ("scalarize.solve_count", "count", "lower", "wall_s, failed_frac", "all"),
    ("scalarize.fallback_steps", "count", "lower", "wall_s, failed_frac", "all"),
    ("scalarize.nonconverged", "count", "lower", "wall_s, failed_frac", "all"),
    ("scalarize.bb_self_s", "s", "lower", "wall_s", "all"),
    ("scalarize.subproblem_ms.p50", "ms", "lower", "wall_s", "all"),
    ("scalarize.subproblem_ms.tail", "ms", "lower", "wall_s", "all"),
    ("experiments.ref_cache_misses", "count", "lower", "wall_s", "study_wsm_cli"),
    ("experiments.ref_cache_hits", "count", "higher", "rerun_s", "study_wsm_cli"),
    ("experiments.ref_solve_s", "s", "lower", "wall_s", "study_wsm_cli"),
    ("experiments.cell_solve_s", "s", "lower", "wall_s; rerun_s", "study_wsm_cli"),
    ("experiments.cell_concurrency", "ratio", "higher", "wall_s; rerun_s", "study_wsm_cli"),
    ("experiments.system_builds", "count", "lower", "wall_s", "study_wsm_cli"),
    ("cli.main_s", "s", "lower", "wall_s, rerun_s", "study_wsm_cli"),
    ("cli.csv_bytes", "bytes", "lower", "wall_s, rerun_s", "study_wsm_cli"),
    ("trace.overhead_s", "s", "lower", "-", "all"),
]

# Counts that must repeat exactly; the recorded seed values live in expected.json.
COUNT_KEYS = [
    "scalarize.subproblems",
    "scalarize.bb_iterations",
    "scalarize.solve_count",
    "scalarize.fallback_steps",
    "scalarize.nonconverged",
    "fem.solve_calls",
    "experiments.ref_cache_misses",
    "experiments.ref_cache_hits",
]


def workload(name: str, quick: bool = False) -> dict:
    """The parameters of a workload, shrunk to level <= 5 when ``quick``."""
    params = dict(WORKLOADS[name])
    if quick:
        params.update(QUICK[name])
    params["name"] = name
    params["quick"] = quick
    return params


def desired_values(seed: int, jitter: float) -> tuple[float, float]:
    """Desired values (y1, y2): the paper's at seed 0, jittered otherwise."""
    if seed == 0:
        return PAPER_Y1, PAPER_Y2
    rng = random.Random(seed)
    return (
        PAPER_Y1 * (1.0 + jitter * rng.uniform(-1.0, 1.0)),
        PAPER_Y2 * (1.0 + jitter * rng.uniform(-1.0, 1.0)),
    )

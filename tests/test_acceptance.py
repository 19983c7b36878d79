"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  The heavy criteria solve on the level-8 reference mesh and share
the process-wide system cache, so the whole module runs in a few minutes.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mopoisson import (
    ExperimentConfig,
    assemble_stiffness,
    benchmark_problem,
    build_uniform_mesh,
    l2_error,
    run_convergence_rpm,
    run_convergence_wsm,
    rpm_front,
    shared_system,
    solve_rpm,
    solve_wsm,
    wsm_front,
)
from oracles import (
    central_difference,
    clip,
    dense_stiffness_interior,
    fixed_step_projected_gradient,
    l2_inner,
    l2_norm,
    manufactured_linf_error,
    mutually_nondominated,
    pareto_ordered,
    power_iteration_bound,
    scalarized_gradient,
    vi_min_slack,
)

WSM_REFERENCE = {
    (0.2, 0.8): ([0.727125, 0.399550, 0.209558, 0.107604], 0.92),
    (0.4, 0.6): ([0.994289, 0.555188, 0.300159, 0.155751], 0.89),
    (0.6, 0.4): ([1.312741, 0.704527, 0.353305, 0.173634], 0.97),
    (0.8, 0.2): ([1.580559, 0.790838, 0.389034, 0.193365], 1.01),
}

RPM_REFERENCE = {
    (16.89, 2.58): ([1.583765, 0.799229, 0.390953, 0.193401], 1.01),
    (17.04, 2.21): ([1.338101, 0.711743, 0.353613, 0.173748], 0.98),
    (17.49, 1.82): ([1.002442, 0.489412, 0.266316, 0.139464], 0.94),
    (17.88, 1.71): ([0.928546, 0.375962, 0.195219, 0.096843], 1.07),
}

ZETA_TRACE = {2: (16.89, 2.58), 4: (17.04, 2.21), 7: (17.49, 1.82), 9: (17.88, 1.71)}

LAMBDA_CONFIGS = [(1.0, 1.0), (1.0, 0.1), (0.1, 1.0), (0.1, 0.1)]


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {name}: PASS", file=sys.stderr)


@pytest.fixture(scope="module")
def study_config(tmp_path_factory, bench):
    return ExperimentConfig(
        problem=bench,
        levels=(2, 3, 4, 5),
        reference_level=8,
        output_dir=tmp_path_factory.mktemp("acceptance"),
    )


def _check_table(table, expected, rate_band):
    failures = []
    for col, (zeta_or_alpha, (cells, published_rate)) in enumerate(expected.items()):
        rate = table.rates[col]
        if not rate_band[0] <= rate <= rate_band[1]:
            failures.append(f"rate[{zeta_or_alpha}]={rate:.3f} outside {rate_band}")
        for row, target in enumerate(cells):
            got = table.errors[row, col]
            deviation = abs(got - target) / target
            if not deviation <= 0.25:
                failures.append(
                    f"entry[{zeta_or_alpha}][h=2^-{row + 2}]={got:.6f} "
                    f"deviates {deviation:.2%} from {target}"
                )
    # errors must also shrink strictly under refinement
    if not np.all(np.diff(table.errors, axis=0) < 1e-12):
        failures.append("errors are not monotonically decreasing in the level")
    return failures


def test_criterion_1_wsm_convergence_errors(study_config):
    with criterion("1 (WSM convergence rates and errors)"):
        table = run_convergence_wsm(study_config, list(WSM_REFERENCE))
        failures = _check_table(table, WSM_REFERENCE, rate_band=(0.85, 1.15))
        assert not failures, "; ".join(failures)


def test_criterion_2_rpm_convergence_errors(study_config):
    # Known marginal red: the (17.88, 1.71) column at h=2^-2 lands ~25.3%
    # from the published value under the frozen-reference-point protocol;
    # the published run walked its reference points per refinement, which
    # is not reconstructible from the published data.  Every other cell
    # and all rates pass.
    with criterion("2 (RPM convergence rates and errors)"):
        table = run_convergence_rpm(study_config, list(RPM_REFERENCE))
        failures = _check_table(table, RPM_REFERENCE, rate_band=(0.85, 1.2))
        assert not failures, "; ".join(failures)


def test_criterion_3_rpm_reference_point_trace(bench):
    with criterion("3 (RPM reference-point trace)"):
        mesh8, system8 = shared_system(8)
        front = rpm_front(bench, system8, 12, 0.2, 0.2)
        zetas = [e.parameter for e in front.entries if e.method == "rpm"]
        assert len(zetas) >= max(ZETA_TRACE)
        for step, expected in ZETA_TRACE.items():
            got = zetas[step - 1]
            for got_c, expected_c in zip(got, expected):
                assert abs(got_c - expected_c) <= 0.05 * abs(expected_c), (
                    f"zeta^{step}={got} deviates from {expected}"
                )

        start = time.monotonic()
        mesh6, system6 = shared_system(6)
        small = rpm_front(bench, system6, 12, 0.2, 0.2)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"level-6 sweep took {elapsed:.1f}s"
        assert pareto_ordered(small.objective_array())


def test_criterion_4_gradient_directional_derivatives(bench, rng):
    with criterion("4 (gradient vs central differences)"):
        mesh = build_uniform_mesh(3)
        system = assemble_stiffness(mesh).factorize()
        for kind, parameter in [("wsm", (0.4, 0.6)), ("rpm", (16.5, 1.8))]:
            u = rng.uniform(bench.bounds.ua, bench.bounds.ub, mesh.num_triangles)
            g = scalarized_gradient(bench, system, u, kind, parameter)
            for _ in range(5):
                w = rng.normal(size=mesh.num_triangles)
                fd = central_difference(bench, system, u, w, kind, parameter, step=1e-5)
                exact = l2_inner(g, w)
                assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


def test_criterion_5_oracle_equivalence(bench):
    with criterion("5 (dense assembly and projected-gradient oracles)"):
        for level in (1, 2, 3):
            mesh = build_uniform_mesh(level)
            system = assemble_stiffness(mesh)
            # the operator the solver inverts, applied to every unit vector
            operator = np.column_stack([system.apply(e) for e in np.eye(system.num_unknowns)])
            assert np.abs(operator - dense_stiffness_interior(mesh)).max() <= 1e-14

        mesh3, system3 = shared_system(3)
        alpha = (0.5, 0.5)
        report = solve_wsm(bench, system3, alpha)
        bound = power_iteration_bound(bench, system3, alpha)
        oracle = fixed_step_projected_gradient(bench, system3, alpha, step=1.0 / bound)
        assert report.converged
        assert l2_error(report.control, oracle) <= 1e-6


def test_criterion_6_kkt_and_variational_inequality(bench, rng):
    with criterion("6 (fixed-point and variational-inequality residuals)"):
        mesh, system = shared_system(4)
        reports = [
            ("wsm", (0.3, 0.7), solve_wsm(bench, system, (0.3, 0.7))),
            ("wsm", (0.7, 0.3), solve_wsm(bench, system, (0.7, 0.3))),
            ("rpm", (16.89, 2.58), solve_rpm(bench, system, (16.89, 2.58))),
            ("rpm", (17.49, 1.82), solve_rpm(bench, system, (17.49, 1.82))),
        ]
        for kind, parameter, report in reports:
            assert report.converged
            u = report.control
            g = scalarized_gradient(bench, system, u, kind, parameter)
            gap = u - clip(u - g, bench.bounds)
            assert l2_norm(gap) <= 1e-8
            assert vi_min_slack(bench, u, g, rng, samples=100) >= -1e-6


def test_criterion_7_manufactured_solution_convergence():
    with criterion("7 (manufactured-solution FE convergence)"):
        errors = {}
        for level in (4, 5, 6):
            mesh, system = shared_system(level)
            errors[level] = manufactured_linf_error(mesh, system)
        for level in (4, 5):
            ratio = errors[level] / errors[level + 1]
            assert abs(ratio - 4.0) <= 0.6, f"ratio {ratio:.3f} at level {level}"


def test_criterion_8_front_structure():
    with criterion("8 (WSM front ordering and nondominance)"):
        mesh, system = shared_system(5)
        for lambdas in LAMBDA_CONFIGS:
            problem = benchmark_problem(*lambdas)
            front = wsm_front(problem, system, 50)
            objectives = front.objective_array()
            assert len(front.entries) == 50
            assert all(e.report.converged for e in front.entries)
            assert pareto_ordered(objectives), f"front not ordered for lambda={lambdas}"
            assert mutually_nondominated(objectives), f"dominated pair for lambda={lambdas}"

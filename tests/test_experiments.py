import numpy as np
import pytest

from mopoisson import (
    BBConfig,
    ExperimentConfig,
    ParetoFront,
    benchmark_problem,
    estimate_rate,
    export_csv,
    load_csv,
    read_control,
    run_convergence_rpm,
    run_convergence_wsm,
    run_front,
)
from mopoisson.experiments import ConvergenceTable

PUBLISHED_H = [2.0 ** -k for k in (2, 3, 4, 5)]
PUBLISHED_WSM_ERRORS = [0.727125, 0.399550, 0.209558, 0.107604]


def small_config(problem, tmp_path, **overrides):
    defaults = dict(
        problem=problem,
        levels=(2, 3),
        reference_level=4,
        wsm_front_size=4,
        rpm_front_size=4,
        output_dir=tmp_path,
        bb=BBConfig(),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_estimate_rate_exact_orders():
    assert estimate_rate([4.0, 2.0, 1.0], [4.0, 2.0, 1.0]) == pytest.approx(1.0)
    assert estimate_rate([4.0, 2.0, 1.0], [16.0, 4.0, 1.0]) == pytest.approx(2.0)


def test_estimate_rate_reproduces_published_column():
    assert estimate_rate(PUBLISHED_H, PUBLISHED_WSM_ERRORS) == pytest.approx(0.92, abs=0.02)


def test_estimate_rate_undefined_for_single_point():
    assert np.isnan(estimate_rate([0.5], [0.1]))
    assert np.isnan(estimate_rate([0.5, 0.25], [0.1, np.nan]))
    # repeated h: one distinct abscissa, no fit (and no RankWarning)
    assert np.isnan(estimate_rate([0.25, 0.25], [0.1, 0.2]))
    assert np.isnan(estimate_rate([0.5, 0.25, 0.25], [np.nan, 0.1, 0.2]))
    with pytest.raises(ValueError):
        estimate_rate([0.5, 0.25], [0.1])


def test_config_validation(tmp_path):
    problem = benchmark_problem()
    with pytest.raises(ValueError):
        ExperimentConfig(problem=problem, levels=(2, 5), reference_level=5, output_dir=tmp_path)
    with pytest.raises(ValueError):
        ExperimentConfig(problem=problem, levels=(), output_dir=tmp_path)
    with pytest.raises(ValueError):
        ExperimentConfig(problem=problem, levels=(2, 3, 2), output_dir=tmp_path)
    with pytest.raises(ValueError):
        ExperimentConfig(problem=problem, wsm_front_size=1, output_dir=tmp_path)


def test_wsm_convergence_small_study(tmp_path):
    config = small_config(benchmark_problem(), tmp_path)
    table = run_convergence_wsm(config, [(0.5, 0.5)])
    assert table.errors.shape == (2, 1)
    assert np.all(np.diff(table.errors[:, 0]) < -1e-12)  # strictly decreasing
    assert 0.6 <= table.rates[0] <= 1.4


def test_reference_cache_round_trip(tmp_path):
    config = small_config(benchmark_problem(), tmp_path)
    table_first = run_convergence_wsm(config, [(0.5, 0.5)])
    cache_files = sorted((tmp_path / "cache").glob("wsm_*.ctrl"))
    assert len(cache_files) == 1
    cached = read_control(cache_files[0])

    cache_files[0].unlink()
    table_second = run_convergence_wsm(config, [(0.5, 0.5)])
    recomputed = read_control(sorted((tmp_path / "cache").glob("wsm_*.ctrl"))[0])
    from mopoisson import l2_error

    assert l2_error(cached, recomputed) <= 1e-10
    assert np.allclose(table_first.errors, table_second.errors, atol=1e-10)


@pytest.mark.parametrize("damage", ["truncated", "nan"])
def test_truncated_cache_file_is_recomputed(tmp_path, damage):
    config = small_config(benchmark_problem(), tmp_path)
    table_first = run_convergence_wsm(config, [(0.5, 0.5)])
    (cache_file,) = (tmp_path / "cache").glob("wsm_*.ctrl")
    complete = cache_file.read_bytes()
    if damage == "truncated":
        cache_file.write_bytes(complete[: len(complete) // 2])
    else:  # the last value replaced, the count unchanged
        cache_file.write_bytes(complete[:-8] + np.array(np.nan, "<f8").tobytes())
    with pytest.warns(RuntimeWarning, match="unreadable reference cache"):
        table_second = run_convergence_wsm(config, [(0.5, 0.5)])
    assert cache_file.read_bytes() == complete
    assert np.array_equal(table_first.errors, table_second.errors)
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [cache_file.name]


def test_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch):
    import mopoisson.experiments

    def full_disk(u, path):
        with open(path, "wb") as fh:
            fh.write(b"\x93NUMPY")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(mopoisson.experiments, "write_control", full_disk)
    with pytest.raises(OSError, match="No space left"):
        run_convergence_wsm(small_config(benchmark_problem(), tmp_path), [(0.5, 0.5)])
    assert list((tmp_path / "cache").iterdir()) == []


@pytest.mark.parametrize("jobs", [1, 4])
def test_study_computes_greens_means_once_per_level(tmp_path, solve_calls, jobs):
    alphas = [(0.3, 0.7), (0.7, 0.3)]
    # cold cache: one solve per observation point on each of the levels 2, 3 and 4
    run_convergence_wsm(small_config(benchmark_problem(), tmp_path, jobs=jobs), alphas)
    assert len(solve_calls) == 6
    # warm cache, fresh problem: the study levels only
    solve_calls.clear()
    run_convergence_wsm(small_config(benchmark_problem(), tmp_path, jobs=jobs), alphas)
    assert len(solve_calls) == 4


def test_parallel_cells_match_sequential(tmp_path):
    problem = benchmark_problem()
    sequential = run_convergence_wsm(small_config(problem, tmp_path / "a"), [(0.3, 0.7), (0.7, 0.3)])
    parallel = run_convergence_wsm(small_config(problem, tmp_path / "b", jobs=4), [(0.3, 0.7), (0.7, 0.3)])
    assert np.array_equal(sequential.errors, parallel.errors)


def test_rpm_convergence_with_explicit_zetas(tmp_path):
    config = small_config(benchmark_problem(), tmp_path)
    table = run_convergence_rpm(config, [(17.0, 2.0)])
    assert table.errors.shape == (2, 1)
    assert np.all(np.isfinite(table.errors))
    assert np.all(np.diff(table.errors[:, 0]) < 0)


def test_rpm_zetas_default_to_reference_sweep(tmp_path):
    config = small_config(benchmark_problem(), tmp_path, rpm_front_size=6)
    from mopoisson.experiments import reference_sweep_zetas

    zetas = reference_sweep_zetas(config, steps=(1, 2))
    assert len(zetas) == 2
    assert zetas[0][0] < zetas[1][0]  # the reference point walks right


def test_run_front_error_series(tmp_path):
    config = small_config(benchmark_problem(1.0, 1.0), tmp_path, levels=(2,), reference_level=3)
    fronts, errors = run_front(config, "wsm")
    assert set(fronts) == {2, 3}
    assert errors.shape == (1, 4)
    assert np.all(np.isfinite(errors))


def test_run_front_two_point_sweep_no_crash(tmp_path):
    config = small_config(benchmark_problem(), tmp_path, levels=(2,), reference_level=3,
                          wsm_front_size=2)
    fronts, errors = run_front(config, "wsm")
    assert errors.shape == (1, 2)


def test_run_front_rpm_pads_mismatched_sweeps(tmp_path):
    # reference-point sweeps may terminate at different lengths per level
    config = small_config(benchmark_problem(), tmp_path, levels=(2,), reference_level=4,
                          rpm_front_size=6)
    fronts, errors = run_front(config, "rpm")
    lengths = {lvl: len(front.entries) for lvl, front in fronts.items()}
    assert errors.shape == (1, lengths[4])
    finite = np.isfinite(errors[0])
    assert finite.sum() == min(lengths.values())


def test_front_errors_mostly_shrink_under_refinement(tmp_path):
    config = small_config(
        benchmark_problem(), tmp_path, levels=(2, 4), reference_level=6, wsm_front_size=9
    )
    fronts, errors = run_front(config, "wsm")
    improved = errors[1] <= errors[0] + 1e-12
    assert improved.mean() >= 0.9


def test_export_csv_round_trip(tmp_path):
    table = ConvergenceTable(
        hs=np.array(PUBLISHED_H),
        labels=["alpha=(0.2,0.8)"],
        errors=np.array(PUBLISHED_WSM_ERRORS).reshape(4, 1),
        rates=np.array([0.92]),
    )
    path = tmp_path / "table.csv"
    export_csv(table, path)
    header, rows = load_csv(path)
    assert header == ["h", "alpha=(0.2,0.8)"]
    assert rows[-1][0] == "rate"
    values = [float(r[1]) for r in rows[:-1]]
    assert values == PUBLISHED_WSM_ERRORS

    export_csv(table, tmp_path / "again.csv")
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()


def test_export_csv_empty_front(tmp_path):
    path = tmp_path / "front.csv"
    export_csv(ParetoFront(entries=[]), path)
    header, rows = load_csv(path)
    assert header == ["param1", "param2", "j1", "j2", "iterations", "converged"]
    assert rows == []


def test_export_csv_rejects_other_types(tmp_path):
    with pytest.raises(TypeError):
        export_csv({"not": "supported"}, tmp_path / "x.csv")


def test_export_csv_bad_path_has_context():
    table = ConvergenceTable(hs=np.array([0.5, 0.25]), labels=["a"],
                             errors=np.ones((2, 1)), rates=np.array([1.0]))
    with pytest.raises(OSError, match="no/such/dir"):
        export_csv(table, "no/such/dir/table.csv")


def test_degenerate_single_row_table(tmp_path):
    config = small_config(benchmark_problem(), tmp_path, levels=(3,), reference_level=4)
    table = run_convergence_wsm(config, [(0.5, 0.5)])
    assert table.errors.shape == (1, 1)
    assert np.isnan(table.rates[0])


def test_rpm_self_consistency_rate(tmp_path):
    # reference point sitting exactly at a reference-level objective pair:
    # the errors are pure discretization and the fitted order stays near one
    from mopoisson import shared_system, solve_rpm

    problem = benchmark_problem()
    mesh, system = shared_system(5)
    anchor = solve_rpm(problem, system, (17.0, 2.0))
    zeta = (anchor.objectives.j1, anchor.objectives.j2)
    config = small_config(problem, tmp_path, levels=(2, 3, 4), reference_level=5)
    table = run_convergence_rpm(config, [zeta])
    assert np.all(np.isfinite(table.errors))
    assert 0.6 <= table.rates[0] <= 1.4

import csv
import tracemalloc

import numpy as np
import pytest

from mopoisson import (
    BBConfig,
    ExperimentConfig,
    benchmark_problem,
    export_csv,
    read_control,
    run_convergence,
    run_front,
    write_control,
)
from mopoisson.experiments import ConvergenceTable, _cache_key, compute_front, estimate_rate, solve_at_level
from mopoisson.mesh import build_uniform_mesh
from mopoisson.scalarize import ParetoFront

PUBLISHED_H = [2.0 ** -k for k in (2, 3, 4, 5)]
PUBLISHED_WSM_ERRORS = [0.727125, 0.399550, 0.209558, 0.107604]


def small_config(problem, tmp_path, **overrides):
    defaults = dict(
        problem=problem,
        levels=(2, 3),
        reference_level=4,
        points=4,
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
    for points in [1, 2.5, np.float64(4.0)]:
        with pytest.raises(ValueError, match="front sizes"):
            ExperimentConfig(problem=problem, points=points, output_dir=tmp_path)
    assert ExperimentConfig(problem=problem, points=np.int64(2)).points == 2
    for bad in [{"eps": 0.7}, {"eps": np.nan}, {"h_perp": -1.0}, {"h_par": np.nan}, {"h_par": np.inf}]:
        with pytest.raises(ValueError):
            ExperimentConfig(problem=problem, output_dir=tmp_path, **bad)
    # int() truncated these: 2.7 to level 2, and a 4.5 reference solved at L4 but missed its cache on every rerun
    for levels, reference_level in [((2.7,), 8), ((2, 3), 4.5), ((2.0, 3), 8), ((2, 3.5), None), (("2",), 8)]:
        with pytest.raises(ValueError, match="levels must be integers"):
            ExperimentConfig(problem=problem, levels=levels, reference_level=reference_level, output_dir=tmp_path)
    config = ExperimentConfig(problem=problem, levels=(np.int64(2), 3), reference_level=np.int64(5))
    assert config.levels == (2, 3) and type(config.levels[0]) is int


def test_convergence_study_without_reference_level_is_refused(tmp_path):
    config = small_config(benchmark_problem(), tmp_path, reference_level=None)
    with pytest.raises(ValueError, match="needs a reference level"):
        run_convergence(config, "wsm", [(0.5, 0.5)])
    assert not list(tmp_path.iterdir())


def test_wsm_convergence_small_study(tmp_path):
    config = small_config(benchmark_problem(), tmp_path)
    table = run_convergence(config, "wsm", [(0.5, 0.5)])
    assert table.errors.shape == (2, 1)
    assert np.all(np.diff(table.errors[:, 0]) < -1e-12)  # strictly decreasing
    assert 0.6 <= table.rates[0] <= 1.4


def test_reference_cache_round_trip(tmp_path):
    config = small_config(benchmark_problem(), tmp_path)
    table_first = run_convergence(config, "wsm", [(0.5, 0.5)])
    cache_files = sorted((tmp_path / "cache").glob("wsm_*.ctrl"))
    assert len(cache_files) == 1
    cached = read_control(cache_files[0], 4)

    cache_files[0].unlink()
    table_second = run_convergence(config, "wsm", [(0.5, 0.5)])
    recomputed = read_control(sorted((tmp_path / "cache").glob("wsm_*.ctrl"))[0], 4)
    from mopoisson.control import l2_error

    assert l2_error(cached, recomputed) <= 1e-10
    assert np.allclose(table_first.errors, table_second.errors, atol=1e-10)


def test_cache_key_is_pinned():
    # existing cache files stay hits only while the key of a fixed config is unchanged
    config = ExperimentConfig(problem=benchmark_problem(), levels=(2, 3), reference_level=6)
    assert _cache_key(config, "wsm", (0.5, 0.5), 6, "cold") == "bfbab21870f7c3d2"
    assert _cache_key(config, "rpm", (17.88, 1.71), 6, "cold") == "ccdc05e0a00683cd"
    assert _cache_key(config, "wsm", (0.5, 0.5), 6, "3") == "7b9fb36c3793e552"


@pytest.mark.parametrize("method, parameters, bound", [
    ("wsm", [(0.2, 0.8), (0.5, 0.5), (0.8, 0.2)], 2.3e-10),
    ("rpm", [(16.89, 2.58), (17.04, 2.21), (17.49, 1.82), (17.88, 1.71)], 4 * BBConfig().tol),
])
def test_nested_and_cold_references_agree(tmp_path, method, parameters, bound):
    """Measured at levels 2, 3 against 4 to 8: up to 2.27e-10 (WSM) and 3.64 tol (RPM) in L2."""
    from mopoisson.control import l2_error

    config = small_config(benchmark_problem(), tmp_path, reference_level=5)
    run_convergence(config, method, parameters)
    for parameter in parameters:
        nested = read_control(tmp_path / "cache" / f"{method}_{_cache_key(config, method, parameter, 5, '3')}.ctrl", 5)
        cold = solve_at_level(config, method, parameter, 5)
        assert cold.converged and l2_error(nested, cold.control) <= bound


def test_another_finest_study_level_is_a_cache_miss(tmp_path, monkeypatch):
    import mopoisson.experiments

    config = small_config(benchmark_problem(), tmp_path)
    keys = {_cache_key(config, "wsm", (0.5, 0.5), 4, start) for start in ("cold", "0", "1", "2", "3")}
    assert len(keys) == 5
    run_convergence(config, "wsm", [(0.5, 0.5)])
    reads, solves = [], []
    monkeypatch.setattr(mopoisson.experiments, "read_control", lambda *a: reads.append(a) or read_control(*a))
    monkeypatch.setattr(mopoisson.experiments, "solve_at_level",
                        lambda config, *a: solves.append(a[:3]) or solve_at_level(config, *a))
    run_convergence(small_config(benchmark_problem(), tmp_path, levels=(2,)), "wsm", [(0.5, 0.5)])
    assert reads == [] and solves == [("wsm", (0.5, 0.5), 2), ("wsm", (0.5, 0.5), 4)]
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == sorted(
        f"wsm_{_cache_key(config, 'wsm', (0.5, 0.5), 4, start)}.ctrl" for start in ("2", "3"))


def _parent_key(config, method, parameter, level):
    """The key of a reference solve before the start level joined it: every reference started cold."""
    import hashlib

    from mopoisson.experiments import _problem_fingerprint

    payload = "|".join(["npy2", method, ",".join(format(float(v), ".17g") for v in parameter), str(level),
                        _problem_fingerprint(config.problem), format(config.bb.tol, ".17g"), str(config.bb.max_iter)])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_previous_format_cache_file_is_a_miss(tmp_path, monkeypatch):
    """A control stored under the key without a start level, from cold reference solves, is neither
    read nor removed."""
    import mopoisson.experiments

    config = small_config(benchmark_problem(), tmp_path)
    fresh = run_convergence(small_config(benchmark_problem(), tmp_path / "fresh"), "wsm", [(0.5, 0.5)])
    old_key = _parent_key(config, "wsm", (0.5, 0.5), 4)
    assert old_key not in {_cache_key(config, "wsm", (0.5, 0.5), 4, start) for start in ("cold", "2", "3")}
    previous = tmp_path / "cache" / f"wsm_{old_key}.ctrl"
    previous.parent.mkdir()
    write_control(np.ones(2 * 4 ** 4), previous)  # a valid level-4 control, far from the solution
    before = previous.read_bytes()
    reads, solves = [], []
    monkeypatch.setattr(mopoisson.experiments, "read_control", lambda *a: reads.append(a) or read_control(*a))
    monkeypatch.setattr(mopoisson.experiments, "solve_at_level",
                        lambda config, *a: solves.append(a[:3]) or solve_at_level(config, *a))
    table = run_convergence(config, "wsm", [(0.5, 0.5)])
    assert reads == [] and ("wsm", (0.5, 0.5), 4) in solves  # a miss: solved at the reference level
    assert np.array_equal(table.errors, fresh.errors)
    assert previous.read_bytes() == before
    assert sorted(p.name for p in previous.parent.glob("wsm_*.ctrl")) == sorted(
        [previous.name, f"wsm_{_cache_key(config, 'wsm', (0.5, 0.5), 4, '3')}.ctrl"])


@pytest.mark.parametrize("damage", ["truncated", "nan", "level-3", "level-5"])
def test_truncated_cache_file_is_recomputed(tmp_path, damage):
    config = small_config(benchmark_problem(), tmp_path)
    table_first = run_convergence(config, "wsm", [(0.5, 0.5)])
    (cache_file,) = (tmp_path / "cache").glob("wsm_*.ctrl")
    complete = cache_file.read_bytes()
    if damage == "truncated":
        cache_file.write_bytes(complete[: len(complete) // 2])
    elif damage == "nan":  # the last value replaced, the count unchanged
        cache_file.write_bytes(complete[:-8] + np.array(np.nan, "<f8").tobytes())
    else:  # a valid control of a level other than the reference level 4
        level = int(damage.split("-")[1])
        write_control(np.ones(2 * 4 ** level), cache_file)
    with pytest.warns(RuntimeWarning, match="unreadable reference cache"):
        table_second = run_convergence(config, "wsm", [(0.5, 0.5)])
    assert cache_file.read_bytes() == complete
    assert np.array_equal(table_first.errors, table_second.errors)
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [cache_file.name]


@pytest.mark.parametrize("slot", ["level-7", "header-14"])
def test_wrong_level_cache_file_is_rejected_from_its_header(tmp_path, monkeypatch, slot):
    """An L7 control, or a header claiming 2*4**14 values over a short body, in the slot of
    an L6 reference: no value is read before the warned miss recomputes and overwrites it."""
    import mopoisson.experiments

    config = small_config(benchmark_problem(), tmp_path, reference_level=6)
    table_first = run_convergence(config, "wsm", [(0.5, 0.5)])
    (cache_file,) = (tmp_path / "cache").glob("wsm_*.ctrl")
    complete = cache_file.read_bytes()
    if slot == "level-7":
        write_control(np.ones(2 * 4 ** 7), cache_file)
    else:
        with cache_file.open("wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {"descr": "<f8", "fortran_order": False, "shape": (2 * 4 ** 14,)})
            fh.write(b"\0" * 16)
    solve_at_level = mopoisson.experiments.solve_at_level
    peaks = []

    def recorded(config, method, parameter, level, u_start=None):
        peaks.append((level, tracemalloc.get_traced_memory()[1]))
        return solve_at_level(config, method, parameter, level, u_start)

    monkeypatch.setattr(mopoisson.experiments, "solve_at_level", recorded)
    tracemalloc.start()
    try:
        with pytest.warns(RuntimeWarning, match="unreadable reference cache"):
            table_second = run_convergence(config, "wsm", [(0.5, 0.5)])
    finally:
        tracemalloc.stop()
    # the study levels 2 and 3 come first; the peak is taken up to the recompute of the reference
    assert [level for level, _ in peaks] == [2, 3, 6]
    peak = peaks[2][1]
    l7_vector = 2 * 4 ** 7 * np.dtype(np.float64).itemsize
    # below one L7 vector, and for the 2 GiB header below one L6 vector
    assert peak < (l7_vector if slot == "level-7" else l7_vector / 4), peak / l7_vector
    assert cache_file.read_bytes() == complete
    assert np.array_equal(table_first.errors, table_second.errors)


def test_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch):
    import mopoisson.experiments

    def full_disk(u, path):
        with open(path, "wb") as fh:
            fh.write(b"\x93NUMPY")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(mopoisson.experiments, "write_control", full_disk)
    with pytest.raises(OSError, match="No space left"):
        run_convergence(small_config(benchmark_problem(), tmp_path), "wsm", [(0.5, 0.5)])
    assert list((tmp_path / "cache").iterdir()) == []


def test_unconverged_reference_leaves_its_column_nan_and_no_cache_file(tmp_path, monkeypatch):
    import mopoisson.experiments

    alphas = [(0.5, 0.5), (0.2, 0.8)]
    full = run_convergence(small_config(benchmark_problem(), tmp_path / "full"), "wsm", alphas)
    solve_wsm = mopoisson.experiments.solve_wsm

    def capped_reference(problem, system, alpha, config, u_start):
        if system.mesh.level == 4 and alpha == alphas[0]:
            config = BBConfig(max_iter=1)
        return solve_wsm(problem, system, alpha, config, u_start)

    monkeypatch.setattr(mopoisson.experiments, "solve_wsm", capped_reference)
    config = small_config(benchmark_problem(), tmp_path / "capped")
    table = run_convergence(config, "wsm", alphas)
    assert np.all(np.isnan(table.errors[:, 0])) and np.isnan(table.rates[0])
    assert np.array_equal(table.errors[:, 1], full.errors[:, 1]) and table.rates[1] == full.rates[1]
    assert table.notes == ["alpha=(0.5,0.5): reference at level 4 did not converge"] and full.notes == []
    cached = [p.name for p in (config.output_dir / "cache").iterdir()]
    assert cached == [f"wsm_{_cache_key(config, 'wsm', alphas[1], 4, '3')}.ctrl"]


def test_unconverged_study_level_is_noted_and_the_reference_starts_below_it(tmp_path, monkeypatch):
    import mopoisson.experiments

    solve_at_level = mopoisson.experiments.solve_at_level
    starts = []

    def capped_level_3(config, method, parameter, level, u_start=None):
        if level == 3:
            config = small_config(config.problem, config.output_dir, bb=BBConfig(max_iter=1))
        starts.append(None if u_start is None else len(u_start))
        return solve_at_level(config, method, parameter, level, u_start)

    full = run_convergence(small_config(benchmark_problem(), tmp_path / "full"), "wsm", [(0.5, 0.5)])
    monkeypatch.setattr(mopoisson.experiments, "solve_at_level", capped_level_3)
    config = small_config(benchmark_problem(), tmp_path / "capped")
    table = run_convergence(config, "wsm", [(0.5, 0.5)])
    assert starts == [None, None, 2 * 4 ** 2]  # the reference starts from level 2
    assert table.notes == ["alpha=(0.5,0.5): level 3 did not converge"]
    assert np.isnan(table.errors[1, 0]) and abs(table.errors[0, 0] - full.errors[0, 0]) <= 1e-9
    cached = [p.name for p in (config.output_dir / "cache").iterdir()]
    assert cached == [f"wsm_{_cache_key(config, 'wsm', (0.5, 0.5), 4, '2')}.ctrl"]


def test_text_era_cache_file_is_never_read_or_removed(tmp_path):
    import hashlib

    from mopoisson.experiments import _problem_fingerprint

    config = small_config(benchmark_problem(), tmp_path)
    fresh = run_convergence(small_config(benchmark_problem(), tmp_path / "fresh"), "wsm", [(0.5, 0.5)])
    # the reference's file before the npy1 format: keyed without a format
    # tag, a level header and one value per line
    fingerprint = _problem_fingerprint(config.problem)
    payload = f"wsm|0.5,0.5|4|{fingerprint}|{config.bb.tol:.17g}|{config.bb.max_iter}"
    text_era = tmp_path / "cache" / f"wsm_{hashlib.sha256(payload.encode()).hexdigest()[:16]}.ctrl"
    text_era.parent.mkdir()
    text_era.write_text("level=4\n" + "0\n" * 512)
    before = text_era.read_bytes()
    table = run_convergence(config, "wsm", [(0.5, 0.5)])  # any read would warn, and warnings fail
    assert text_era.read_bytes() == before
    assert np.array_equal(table.errors, fresh.errors)
    assert len(list(text_era.parent.glob("wsm_*.ctrl"))) == 2


def test_shared_system_under_concurrent_first_calls(race, rng):
    from mopoisson import shared_system
    from mopoisson.fem import assemble_stiffness, solve_spd
    from mopoisson.mesh import build_uniform_mesh

    rhss = rng.normal(size=(8, (2 ** 6 - 1) ** 2))
    results = [None] * 8

    def work(i):
        mesh, system = shared_system(6)
        results[i] = (mesh.level, solve_spd(system, rhss[i]))

    race(work)
    reference = assemble_stiffness(build_uniform_mesh(6))
    for (level, values), rhs in zip(results, rhss):
        assert level == 6
        assert np.array_equal(values, solve_spd(reference, rhs))


@pytest.mark.parametrize("n_weights", [1, 4])
def test_study_computes_greens_means_once_per_level(tmp_path, solve_calls, n_weights):
    alphas = [(a, 1.0 - a) for a in np.linspace(0.2, 0.8, n_weights)]
    # cold cache: one solve per observation point on each of the levels 2, 3 and 4,
    # however many weight vectors the study runs
    run_convergence(small_config(benchmark_problem(), tmp_path), "wsm", alphas)
    assert len(solve_calls) == 6
    # warm cache, fresh problem: the study levels only
    solve_calls.clear()
    run_convergence(small_config(benchmark_problem(), tmp_path), "wsm", alphas)
    assert len(solve_calls) == 4


def test_study_solves_each_column_before_its_reference(tmp_path, monkeypatch):
    from mopoisson import experiments

    calls = []

    def recorded(name, fn, when=lambda *args: True):
        def wrapper(*args):
            if when(*args):
                calls.append(name)
            return fn(*args)

        return wrapper

    config = small_config(benchmark_problem(), tmp_path)
    monkeypatch.setattr(experiments, "l2_error", recorded("error", experiments.l2_error))
    monkeypatch.setattr(experiments, "read_control", recorded("read", experiments.read_control))
    monkeypatch.setattr(experiments, "solve_at_level", recorded(
        "cell", experiments.solve_at_level, lambda c, m, p, level, u_start=None: level < config.reference_level
    ))
    monkeypatch.setattr(experiments, "solve_at_level", recorded(
        "reference", experiments.solve_at_level, lambda c, m, p, level, u_start=None: level == config.reference_level
    ))
    alphas = [(0.3, 0.7), (0.7, 0.3)]
    for reference in ("reference", "read"):  # cold pass, then cached pass
        calls.clear()
        run_convergence(config, "wsm", alphas)
        assert calls == ["cell", "cell", reference, "error", "error"] * 2


def test_rpm_convergence_with_explicit_zetas(tmp_path):
    config = small_config(benchmark_problem(), tmp_path)
    table = run_convergence(config, "rpm", [(17.0, 2.0)])
    assert table.errors.shape == (2, 1)
    assert np.all(np.isfinite(table.errors))
    assert np.all(np.diff(table.errors[:, 0]) < 0)


def test_rpm_zetas_default_to_reference_sweep(tmp_path):
    config = small_config(benchmark_problem(), tmp_path, points=None)
    from mopoisson.experiments import reference_sweep_zetas

    zetas = reference_sweep_zetas(config)
    assert len(zetas) == 4
    assert all(a[0] < b[0] for a, b in zip(zetas, zetas[1:]))  # the reference point walks right


def test_run_front_error_series(tmp_path):
    config = small_config(benchmark_problem(1.0, 1.0), tmp_path, levels=(2,), reference_level=3)
    fronts, errors = run_front(config, "wsm")
    assert set(fronts) == {2, 3}
    assert errors.shape == (1, 4)
    assert np.all(np.isfinite(errors))


def test_run_front_two_point_sweep_no_crash(tmp_path):
    config = small_config(benchmark_problem(), tmp_path, levels=(2,), reference_level=3,
                          points=2)
    fronts, errors = run_front(config, "wsm")
    assert errors.shape == (1, 2)


def test_run_front_rpm_pads_mismatched_sweeps(tmp_path):
    # reference-point sweeps may terminate at different lengths per level
    config = small_config(benchmark_problem(), tmp_path, levels=(2,), reference_level=4,
                          points=6)
    fronts, errors = run_front(config, "rpm")
    lengths = {lvl: len(front.entries) for lvl, front in fronts.items()}
    assert errors.shape == (1, lengths[4])
    finite = np.isfinite(errors[0])
    assert finite.sum() == min(lengths.values())


def test_front_errors_mostly_shrink_under_refinement(tmp_path):
    config = small_config(
        benchmark_problem(), tmp_path, levels=(2, 4), reference_level=6, points=9
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
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["h", "alpha=(0.2,0.8)"]
    assert rows[-1][0] == "rate"
    values = [float(r[1]) for r in rows[:-1]]
    assert values == PUBLISHED_WSM_ERRORS

    export_csv(table, tmp_path / "again.csv")
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()


def test_export_csv_empty_front(tmp_path):
    path = tmp_path / "front.csv"
    export_csv(ParetoFront(entries=[]), path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["param1", "param2", "j1", "j2", "iterations", "converged"]
    assert rows == []


def test_export_csv_front_errors(tmp_path):
    path = tmp_path / "errors.csv"
    export_csv({3: np.array([0.25, np.nan]), 4: np.array([1 / 3, 1e-10])}, path)
    assert path.read_bytes() == b"index,error_L3,error_L4\r\n0,0.25,0.333333333\r\n1,nan,1e-10\r\n"


def test_export_csv_rejects_other_types(tmp_path):
    with pytest.raises(TypeError):
        export_csv({"not": "supported"}, tmp_path / "x.csv")


def test_export_csv_bad_path_has_context():
    table = ConvergenceTable(hs=np.array([0.5, 0.25]), labels=["a"],
                             errors=np.ones((2, 1)), rates=np.array([1.0]))
    with pytest.raises(OSError, match="no/such/dir"):
        export_csv(table, "no/such/dir/table.csv")
    with pytest.raises(OSError, match="no/such/dir"):
        export_csv({2: np.ones(3)}, "no/such/dir/errors.csv")


def test_single_solves_and_fronts_reject_unknown_methods(tmp_path):
    config = small_config(benchmark_problem(), tmp_path)
    with pytest.raises(ValueError, match="unknown method 'nbi'"):
        solve_at_level(config, "nbi", (0.5, 0.5), 2)
    with pytest.raises(ValueError, match="unknown method 'nbi'"):
        compute_front(config, "nbi", 2)


def test_degenerate_single_row_table(tmp_path):
    config = small_config(benchmark_problem(), tmp_path, levels=(3,), reference_level=4)
    table = run_convergence(config, "wsm", [(0.5, 0.5)])
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
    table = run_convergence(config, "rpm", [zeta])
    assert np.all(np.isfinite(table.errors))
    assert 0.6 <= table.rates[0] <= 1.4

import csv
import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mopoisson
from mopoisson import ExperimentConfig, benchmark_problem, experiments, read_control
from mopoisson.cli import _build_parser, _experiment_config, main
from mopoisson.scalarize import ParetoFront


def test_solve_wsm_writes_control_and_reports(tmp_path, capsys):
    code = main([
        "solve-wsm", "--alpha", "0.5,0.5", "--level", "3", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged=True" in out
    files = list(tmp_path.glob("solution_wsm_*.ctrl"))
    assert len(files) == 1
    assert read_control(files[0], 3).shape == (2 * 4 ** 3,)


def test_solve_rpm_subcommand(tmp_path, capsys):
    code = main([
        "solve-rpm", "--zeta", "16.5,1.5", "--level", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    assert list(tmp_path.glob("solution_rpm_*.ctrl"))


def test_invalid_arguments_exit_two(tmp_path, capsys):
    assert main(["solve-wsm", "--alpha", "nonsense", "--level", "2", "--out", str(tmp_path)]) == 2
    assert main(["solve-wsm", "--alpha", "1.0,0.0", "--level", "2", "--out", str(tmp_path)]) == 2
    assert main(["solve-wsm", "--alpha", "0.5,0.5", "--bounds", "5,1", "--out", str(tmp_path)]) == 2
    # equal bounds pass the box check but leave no interior to iterate in
    assert main(["solve-wsm", "--alpha", "0.5,0.5", "--bounds=1,1", "--level", "2", "--out", str(tmp_path)]) == 2
    # a study refused by its first reference solve makes no cache directory
    study = ["convergence", "--method", "wsm", "--levels", "2,3", "--ref-level", "4"]
    assert main(study + ["--bounds=1,1", "--out", str(tmp_path / "o")]) == 2
    # eps >= 0.5 would swap the sweep endpoints
    for command in (["front", "--method", "rpm", "--ref-level", "2"], ["ideal-vector"]):
        assert main(command + ["--eps", "0.7", "--level", "2", "--out", str(tmp_path)]) == 2
    # repeated study levels and empty parameter lists
    for extra in (["--levels", "2,2"], ["--levels", "2", "--alphas", ";"]):
        assert main(["convergence", "--method", "wsm", "--ref-level", "3", *extra, "--out", str(tmp_path)]) == 2
    assert main(["convergence", "--method", "rpm", "--zetas", ";", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("levels", [["--levels=-1,2", "--ref-level", "5"], ["--levels", "2", "--ref-level", "15"]])
def test_bad_study_levels_exit_two_before_any_reference_solve(tmp_path, solve_calls, levels):
    assert main(["convergence", "--method", "wsm", *levels, "--out", str(tmp_path)]) == 2
    assert not solve_calls
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("args", [
    ["--method", "wsm", "--alphas", "0.5,0.5;0.2,0.7"],
    ["--method", "wsm", "--alphas", "1,0"],
    ["--method", "rpm", "--zetas", "nan,1"],
    ["--method", "rpm", "--zetas", "1e308,1e308"],
])
def test_bad_study_parameters_exit_two_before_any_reference_solve(tmp_path, solve_calls, args):
    assert main(["convergence", *args, "--levels", "2,3", "--ref-level", "5", "--out", str(tmp_path)]) == 2
    assert not solve_calls
    assert not (tmp_path / "cache").exists()


def test_unusable_paths_exit_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    # --out below a regular file cannot be created; --config names a directory
    assert main([
        "front", "--method", "wsm", "--level", "2", "--ref-level", "2", "--points", "3",
        "--out", str(blocker / "x"),
    ]) == 2
    assert main(["ideal-vector", "--level", "2", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("error: ") == 2
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("args", [
    ["solve-wsm", "--alpha", "nan,nan"],
    ["solve-rpm", "--zeta", "nan,1"],
    ["solve-wsm", "--alpha", "0.5,0.5", "--lambda", "nan,0.1"],
    ["solve-wsm", "--alpha", "0.5,0.5", "--obs1", "0.75,0.25=inf"],
    ["solve-wsm", "--alpha", "0.5,0.5", "--tol", "inf"],
    ["front", "--method", "rpm", "--ref-level", "2", "--h-perp", "nan"],
])
def test_non_finite_input_exits_two_without_output(tmp_path, args):
    assert main(args + ["--level", "2", "--max-iter", "50", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["solve-wsm", "--alpha", "0.5,0.5", "--obs1", "0.5,0.5=1e200"],
    ["solve-wsm", "--alpha", "0.5,0.5", "--lambda", "1e300,1e300"],
    ["solve-rpm", "--zeta", "1,1", "--bounds=-1e101,1"],
    ["solve-rpm", "--zeta", "1e308,1e308"],
])
def test_overflow_scale_input_exits_two_without_warning(tmp_path, capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--level", "3", "--out", str(tmp_path)]) == 2
    assert "at most 1e+100" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, code", [
    (["solve-wsm", "--alpha", "0.5,0.5", "--bounds=1e15,2e15"], 0),
    (["solve-wsm", "--alpha", "0.5,0.5", "--bounds=-2e15,-1e15"], 0),
    (["solve-rpm", "--zeta", "1,1", "--bounds=1e16,1e17"], 0),
    # no float lies strictly between these bounds, so no second starting control fits
    (["solve-wsm", "--alpha", "0.5,0.5", "--bounds=1,1.0000000000000002"], 2),
])
def test_box_away_from_zero_is_solved_or_refused_as_too_narrow(tmp_path, capsys, args, code):
    assert main(args + ["--level", "3", "--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert "converged=True" in captured.out
        ua, ub = (float(b) for b in args[-1].split("=")[1].split(","))
        values = read_control(next(tmp_path.glob("*.ctrl")), 3)
        assert ua <= values.min() and values.max() <= ub
    else:
        assert "box bounds 1.0,1.0000000000000002 are too narrow" in captured.err
        assert not list(tmp_path.iterdir())


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_unconverged_single_solve_exits_three(tmp_path, capsys):
    code = main([
        "solve-wsm", "--alpha", "0.5,0.5", "--level", "2", "--max-iter", "1",
        "--out", str(tmp_path),
    ])
    assert code == 3


def test_unconverged_ideal_vector_exits_three_without_a_vector(tmp_path, capsys):
    assert main(["ideal-vector", "--level", "3", "--max-iter", "1", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solver failure: endpoint solve did not converge" in captured.err


def test_front_subcommand_writes_csv(tmp_path):
    code = main([
        "front", "--method", "wsm", "--level", "2", "--ref-level", "3",
        "--points", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "front_wsm_0.1_0.1.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["param1", "param2", "j1", "j2", "iterations", "converged"]
    assert len(rows) == 3
    assert all(r[5] == "1" for r in rows)
    with open(tmp_path / "front_error_wsm_0.1_0.1.csv", newline="") as fh:
        err_header, *err_rows = csv.reader(fh)
    assert len(err_rows) == 3


def test_front_without_reference_skips_error_series(tmp_path):
    code = main([
        "front", "--method", "rpm", "--level", "2", "--ref-level", "2",
        "--points", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "front_rpm_0.1_0.1.csv").exists()
    assert not (tmp_path / "front_error_rpm_0.1_0.1.csv").exists()


def test_front_at_the_top_level_needs_no_reference(tmp_path, monkeypatch):
    # the sweep is stubbed, so no level-14 mesh is built
    swept = []

    def fake_front(config, method, level):
        swept.append(level)
        return ParetoFront(entries=[])

    monkeypatch.setattr(experiments, "compute_front", fake_front)
    assert main(["front", "--method", "wsm", "--level", "14", "--out", str(tmp_path)]) == 0
    assert swept == [14]
    assert (tmp_path / "front_wsm_0.1_0.1.csv").exists()
    assert not list(tmp_path.glob("front_error_*.csv"))


def test_convergence_subcommand(tmp_path, capsys):
    code = main([
        "convergence", "--method", "wsm", "--alphas", "0.5,0.5",
        "--levels", "2,3", "--ref-level", "4", "--out", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "convergence_wsm.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["h", "alpha=(0.5,0.5)"]
    assert rows[-1][0] == "rate"
    errors = [float(r[1]) for r in rows[:-1]]
    assert errors[0] > errors[1]


def test_unconverged_solves_are_noted_on_stderr(tmp_path, capsys):
    """An all-NaN table says why: one note per failed solve; stdout, CSV and exit code as before."""
    study = ["convergence", "--method", "rpm", "--levels", "1,2", "--ref-level", "3", "--max-iter", "2"]
    assert main(study + ["--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    zetas = ["zeta=(16.9702,2.58753)", "zeta=(17.1124,2.21412)", "zeta=(17.5581,1.82113)", "zeta=(17.9446,1.71698)"]
    assert err.splitlines() == [f"note: {z}: {solve} did not converge"
                                for z in zetas for solve in ("level 2", "reference at level 3")]
    assert out.splitlines() == [f"{z}: rate=nan" for z in zetas] + [
        f"table written to {tmp_path / 'convergence_rpm.csv'}"]
    assert (tmp_path / "convergence_rpm.csv").read_bytes() == "\r\n".join([
        "h," + ",".join(f'"{z}"' for z in zetas), "0.5,nan,nan,nan,nan", "0.25,nan,nan,nan,nan",
        "rate,nan,nan,nan,nan", ""]).encode()


def test_unparsable_cache_header_is_warned_recomputed_and_restored(tmp_path, capsys):
    """numpy's header parser raises tokenize.TokenError on unbalanced parentheses."""
    study = ["convergence", "--method", "wsm", "--levels", "2,3", "--ref-level", "5",
             "--alphas", "0.5,0.5", "--out", str(tmp_path)]
    assert main(study) == 0
    cold = (tmp_path / "convergence_wsm.csv").read_bytes()
    (cache_file,) = (tmp_path / "cache").glob("wsm_*.ctrl")
    complete = cache_file.read_bytes()
    assert complete.count(b"'shape': (2048,)") == 1
    cache_file.write_bytes(complete.replace(b"'shape': (2048,)", b"'shape': (((2048"))
    with pytest.warns(RuntimeWarning, match="unreadable reference cache"):
        assert main(study) == 0
    assert (tmp_path / "convergence_wsm.csv").read_bytes() == cold
    assert cache_file.read_bytes() == complete
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [cache_file.name]


def test_jobs_is_validated_but_changes_nothing(tmp_path):
    study = ["convergence", "--method", "wsm", "--levels", "2,3", "--ref-level", "4"]
    for jobs in ("1", "3"):
        assert main(study + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    csv_bytes = [(tmp_path / jobs / "convergence_wsm.csv").read_bytes() for jobs in ("1", "3")]
    assert csv_bytes[0] == csv_bytes[1]
    assert main(study + ["--jobs", "0", "--out", str(tmp_path / "0")]) == 2
    assert not (tmp_path / "0").exists()


def test_convergence_rpm_with_zetas(tmp_path):
    code = main([
        "convergence", "--method", "rpm", "--zetas", "17.0,2.0",
        "--levels", "2,3", "--ref-level", "4", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "convergence_rpm.csv").exists()


def test_ideal_vector_prints_two_components(tmp_path, capsys):
    code = main(["ideal-vector", "--level", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ideal vector:" in out


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("level=2\nlambda=1,1\ntol=1e-6\n")
    code = main([
        "solve-wsm", "--alpha", "0.5,0.5", "--config", str(config),
        "--out", str(tmp_path / "a"),
    ])
    assert code == 0
    assert "level=2" in capsys.readouterr().out

    # explicit flag wins over the file value
    code = main([
        "solve-wsm", "--alpha", "0.5,0.5", "--config", str(config),
        "--level", "3", "--out", str(tmp_path / "b"),
    ])
    assert code == 0
    assert "level=3" in capsys.readouterr().out


def test_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("not_a_flag=1\n")
    assert main(["solve-wsm", "--alpha", "0.5,0.5", "--config", str(config)]) == 2
    assert main(["solve-wsm", "--alpha", "0.5,0.5", "--config", str(tmp_path / "missing.cfg")]) == 2



def test_config_file_matches_explicit_flags(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("level=2\nref_level=2\npoints=3\nbounds=-1,1\ncold_start=true\n")
    shared = ["front", "--method", "wsm", "--level", "2", "--ref-level", "2", "--points", "3"]
    assert main(["front", "--method", "wsm", "--config", str(config), "--out", str(tmp_path / "file")]) == 0
    assert main(shared + ["--bounds=-1,1", "--cold-start", "--out", str(tmp_path / "flags")]) == 0
    assert main(shared + ["--out", str(tmp_path / "default")]) == 0
    csv = {d: (tmp_path / d / "front_wsm_0.1_0.1.csv").read_bytes() for d in ("file", "flags", "default")}
    assert csv["file"] == csv["flags"] != csv["default"]

    config.write_text("level=2\ncold_start=false\n")
    assert main(["solve-wsm", "--alpha", "0.5,0.5", "--config", str(config), "--out", str(tmp_path)]) == 0


def test_convergence_rpm_defaults_to_reference_sweep_zetas(tmp_path, capsys):
    study = ["convergence", "--method", "rpm", "--levels", "2,3", "--ref-level", "4"]
    assert main(study + ["--out", str(tmp_path / "full")]) == 0
    with open(tmp_path / "full" / "convergence_rpm.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header[0] == "h" and len(header) == 5 and all(h.startswith("zeta=(") for h in header[1:])
    assert len(rows) == 3
    # five points reach only four reference points, and step 9 is needed
    capsys.readouterr()
    assert main(study + ["--points", "5", "--out", str(tmp_path / "short")]) == 2
    assert "reference sweep produced only 4 points" in capsys.readouterr().err
    assert not (tmp_path / "short").exists()


@pytest.mark.parametrize("obs1, message", [
    ("0.75,0.25", "--obs1 entries look like x,y=v"),
    (" ; ", "--obs1 must contain at least one observation"),
    ("0.75=6", "--obs1 expects two comma-separated values"),
])
def test_malformed_observations_exit_two(tmp_path, capsys, obs1, message):
    assert main(["solve-wsm", "--alpha", "0.5,0.5", "--level", "2", "--obs1", obs1, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_config_line_without_value_exits_two(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# comment\nlevel 2\n")
    assert main(["solve-wsm", "--alpha", "0.5,0.5", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "config line 'level 2' is not key=value" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["solve-wsm", "--alpha", "0.5,0.5"],
    ["solve-rpm", "--zeta", "16.5,1.5"],
    ["front", "--method", "wsm"],
    ["convergence", "--method", "wsm", "--levels", "2,3", "--ref-level", "4"],
    ["ideal-vector"],
    ["convergence", "--method", "rpm", "--levels", "2,3", "--ref-level", "4", "--zetas", "17,2"],
])
@pytest.mark.parametrize("flag, message", [(["--jobs", "0"], "--jobs must be positive"),
                                           (["--points", "1"], "front sizes must be at least 2"),
                                           (["--eps", "0.7"], "eps must lie in (0, 0.5)"),
                                           (["--h-perp", "-1"], "scaling parameters must be positive"),
                                           (["--h-par", "nan"], "scaling parameters must be positive")])
def test_jobs_and_points_are_checked_on_every_subcommand(tmp_path, capsys, solve_calls, command, flag, message):
    assert main(command + ["--level", "2", *flag, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not solve_calls
    assert not list(tmp_path.iterdir())


def test_cli_defaults_match_the_library_defaults():
    args = _build_parser().parse_args(["convergence", "--method", "wsm"])
    cli = _experiment_config(args, tuple(int(v) for v in args.levels.split(",")), args.ref_level)
    library = ExperimentConfig(problem=benchmark_problem())
    for field in dataclasses.fields(ExperimentConfig):
        if field.name != "problem":
            assert getattr(cli, field.name) == getattr(library, field.name), field.name
    for field in dataclasses.fields(mopoisson.ProblemData):
        if field.init:
            ours, theirs = getattr(cli.problem, field.name), getattr(library.problem, field.name)
            assert np.array_equal(ours, theirs) if isinstance(ours, np.ndarray) else ours == theirs, field.name


def test_repeated_studies_in_one_process_match_a_fresh_process(tmp_path):
    """Nothing a run leaves in the process changes the next run's files."""
    study = ["convergence", "--method", "wsm", "--levels", "2,3", "--ref-level", "4"]
    for name in ("first", "second"):
        assert main(study + ["--out", str(tmp_path / name)]) == 0
    src = Path(mopoisson.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "mopoisson.cli", *study, "--out", str(tmp_path / "fresh")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr

    def outputs(name):
        root = tmp_path / name
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.suffix in (".csv", ".ctrl")}

    first = outputs("first")
    # the table and one reference control for each of the four default weight pairs
    assert "convergence_wsm.csv" in first and len(first) == 5
    assert outputs("second") == first
    assert outputs("fresh") == first

import pytest

from mopoisson.cli import main
from mopoisson import load_csv, read_control


def test_solve_wsm_writes_control_and_reports(tmp_path, capsys):
    code = main([
        "solve-wsm", "--alpha", "0.5,0.5", "--level", "3", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged=True" in out
    files = list(tmp_path.glob("solution_wsm_*.ctrl"))
    assert len(files) == 1
    control = read_control(files[0])
    assert control.mesh.level == 3


def test_solve_rpm_subcommand(tmp_path, capsys):
    code = main([
        "solve-rpm", "--zeta", "16.5,1.5", "--level", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    assert list(tmp_path.glob("solution_rpm_*.ctrl"))


def test_invalid_arguments_exit_two(tmp_path):
    assert main(["solve-wsm", "--alpha", "nonsense", "--level", "2", "--out", str(tmp_path)]) == 2
    assert main(["solve-wsm", "--alpha", "1.0,0.0", "--level", "2", "--out", str(tmp_path)]) == 2
    assert main(["solve-wsm", "--alpha", "0.5,0.5", "--bounds", "5,1", "--out", str(tmp_path)]) == 2
    # eps >= 0.5 would swap the sweep endpoints
    for command in (["front", "--method", "rpm", "--ref-level", "2"], ["ideal-vector"]):
        assert main(command + ["--eps", "0.7", "--level", "2", "--out", str(tmp_path)]) == 2
    # repeated study levels and empty parameter lists
    for extra in (["--levels", "2,2"], ["--levels", "2", "--alphas", ";"]):
        assert main(["convergence", "--method", "wsm", "--ref-level", "3", *extra, "--out", str(tmp_path)]) == 2
    assert main(["convergence", "--method", "rpm", "--zetas", ";", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


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


def test_front_subcommand_writes_csv(tmp_path):
    code = main([
        "front", "--method", "wsm", "--level", "2", "--ref-level", "3",
        "--points", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    header, rows = load_csv(tmp_path / "front_wsm_0.1_0.1.csv")
    assert header == ["param1", "param2", "j1", "j2", "iterations", "converged"]
    assert len(rows) == 3
    assert all(r[5] == "1" for r in rows)
    err_header, err_rows = load_csv(tmp_path / "front_error_wsm_0.1_0.1.csv")
    assert len(err_rows) == 3


def test_front_without_reference_skips_error_series(tmp_path):
    code = main([
        "front", "--method", "rpm", "--level", "2", "--ref-level", "2",
        "--points", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "front_rpm_0.1_0.1.csv").exists()
    assert not (tmp_path / "front_error_rpm_0.1_0.1.csv").exists()


def test_convergence_subcommand(tmp_path, capsys):
    code = main([
        "convergence", "--method", "wsm", "--alphas", "0.5,0.5",
        "--levels", "2,3", "--ref-level", "4", "--out", str(tmp_path),
    ])
    assert code == 0
    header, rows = load_csv(tmp_path / "convergence_wsm.csv")
    assert header == ["h", "alpha=(0.5,0.5)"]
    assert rows[-1][0] == "rate"
    errors = [float(r[1]) for r in rows[:-1]]
    assert errors[0] > errors[1]


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

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Library sketch", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README.name} (Library sketch)", "exec"), {})
    assert (tmp_path / "front_wsm.csv").exists()


def test_control_file_loads_with_plain_numpy(tmp_path, monkeypatch, capsys):
    import numpy as np

    from mopoisson import read_control
    from mopoisson.cli import main

    section = README.read_text().split("## Command line", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    monkeypatch.chdir(tmp_path)
    assert main(["solve-wsm", "--alpha", "0.2,0.8", "--level", "6"]) == 0
    scope = {}
    exec(compile(code, f"{README.name} (Command line)", "exec"), scope)
    control = read_control(tmp_path / "out" / "solution_wsm_0.2_0.8_L6.ctrl", 6)
    assert scope["level"] == 6
    assert scope["values"].dtype == np.dtype("<f8")
    assert scope["values"].tobytes() == control.tobytes()


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    """Every ``mopoisson`` line of the "Command line" block exits 0."""
    import shlex

    from mopoisson.cli import main

    section = README.read_text().split("## Command line", 1)[1]
    (block,) = re.findall(r"```sh\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("mopoisson ")]
    assert len(lines) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == 0, (shlex.join(argv), capsys.readouterr().err)

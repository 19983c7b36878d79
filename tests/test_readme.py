import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Library sketch", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README.name} (Library sketch)", "exec"), {})
    assert (tmp_path / "front_wsm.csv").exists()

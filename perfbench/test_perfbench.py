"""Smoke tests of the benchmark harness on its short level <= 5 variants.

    python3 -m pytest -q perfbench

They run the harness end to end in a few seconds; they say nothing about
the speed of the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc, proc.stdout.strip().splitlines()


def test_benchmark_json_matches_the_catalogue():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w["why"] for w in spec.WORKLOADS.values()]
    assert BENCHMARK["end_to_end"] == spec.END_TO_END
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better, *_ in spec.PER_LAYER
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_quick_run_reports_every_metric(workload, trace):
    proc, lines = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    counts = json.loads(next(line for line in lines if line.startswith("counts "))[len("counts "):])
    assert counts["deterministic"]
    assert not (HERE.parent / ".perfbench_tmp").exists()


def test_traced_counts_equal_untraced_counts():
    proc, lines = _run("--workload", "study_wsm_cli", "--seconds", "0", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(lines[-1])["metrics"]
    counts = json.loads(next(line for line in lines if line.startswith("counts "))[len("counts "):])
    assert counts["deterministic"]
    for key in spec.COUNT_KEYS:
        assert metrics[key]["value"] == counts["values"][key]
    assert metrics["experiments.ref_cache_misses"]["value"] == 4
    assert metrics["experiments.ref_cache_hits"]["value"] == 4


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run("--workload", "fronts_wsm_L5", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def _front(points):
    return [["wsm", [0.5, 0.5], j1, j2, True] for j1, j2 in points]


def test_front_checks_flag_each_bad_point():
    params = spec.workload("fronts_wsm_L5", quick=True)
    params["points"] = 4
    good = _front([(1.0, 4.0), (2.0, 3.0), (3.0, 2.0), (4.0, 1.0)])
    assert worker.check_fronts(params, [good], None, seed=1) == []
    unordered = _front([(1.0, 4.0), (3.0, 2.0), (2.0, 3.0), (4.0, 1.0)])
    assert worker.check_fronts(params, [unordered], None, seed=1)
    dominated = _front([(1.0, 4.0), (2.0, 3.0), (2.5, 3.5), (4.0, 1.0)])
    assert any("dominated" in f for f in worker.check_fronts(params, [dominated], None, seed=1))
    stalled = [e[:4] + [False] for e in good]
    assert len(worker.check_fronts(params, [stalled], None, seed=1)) == 4


def test_study_checks_compare_both_passes():
    params = spec.workload("study_wsm_cli", quick=True)
    table = "h,a,b,c,d\r\n0.25,1,1,1,1\r\n0.125,0.5,0.5,0.5,0.5\r\nrate,1,1,1,1\r\n"
    assert worker.check_study(params, {"codes": [0, 0], "csv": [table, table]}, None, seed=1) == []
    stale = table.replace("0.5,", "0.6,")
    assert len(worker.check_study(params, {"codes": [0, 0], "csv": [table, stale]}, None, seed=1)) == 8
    assert len(worker.check_study(params, {"codes": [0, 2], "csv": [table, table]}, None, seed=1)) == 8
    broken = table.replace("0.25,1,", "0.25,nan,")
    assert len(worker.check_study(params, {"codes": [0, 0], "csv": [broken, broken]}, None, seed=1)) == 2


def test_seeds_give_the_paper_data_or_bounded_jitter():
    assert spec.desired_values(0, spec.JITTER) == (spec.PAPER_Y1, spec.PAPER_Y2)
    for seed in range(1, 20):
        y1, y2 = spec.desired_values(seed, spec.JITTER)
        assert spec.desired_values(seed, spec.JITTER) == (y1, y2) != (spec.PAPER_Y1, spec.PAPER_Y2)
        assert abs(y1 / spec.PAPER_Y1 - 1.0) <= spec.JITTER
        assert abs(y2 / spec.PAPER_Y2 - 1.0) <= spec.JITTER


def test_tail_percentile_keeps_ten_samples_beyond_it():
    samples = list(range(1, 201))
    q, value = run.tail_percentile(samples)
    assert q == 95 and value == 190
    assert sum(s > value for s in samples) >= 10
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)

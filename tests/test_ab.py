"""``tools/ab.py``'s aggregation on canned ``perfbench/run.py`` result lines; no benchmark is started."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def _line(wall, rate, correct=True):
    return {
        "correct": correct, "attempted": 36, "failed": 0 if correct else 1,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "subproblems_per_s": {"value": rate, "unit": "1/s"}},
    }


RULES = {"wall_s": ("lower", 0.25), "subproblems_per_s": ("higher", 0.25)}


def test_result_line_is_the_last_json_line():
    stdout = "perfbench x\ncounts {\"a\": 1}\nwall_s 1 s\n" + json.dumps(_line(0.5, 2.0)) + "\n"
    assert ab.result_line(stdout) == _line(0.5, 2.0)
    assert ab.result_line("error: no checkout\n") is None


def test_quartiles_of_one_and_of_many_values():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_counts_wins_in_each_metrics_direction():
    parent = [0.10, 0.11, 0.12, 0.13, 0.14]
    child = [0.09, 0.10, 0.12, 0.12, 0.13]  # better in four pairs, a tie in one
    pairs = [(_line(p, 1.0 / p), _line(c, 1.0 / c)) for p, c in zip(parent, child)]
    wall, rate = ab.summarize(pairs, RULES)
    assert wall["name"] == "wall_s" and wall["unit"] == "s"
    assert wall["parent"] == (0.11, 0.12, 0.13) and wall["child"] == (0.10, 0.12, 0.12)
    assert wall["ratios"] == pytest.approx([c / p for p, c in zip(parent, child)])
    assert (wall["wins"], rate["wins"]) == (4, 4)  # a higher rate is better
    assert not wall["gain"]  # 4 of 5 pairs, and equal medians
    lines = ab.format_rows([wall], 5)
    assert lines[0].startswith("wall_s [s] parent 0.12 (0.11..0.13) child 0.12 (0.1..0.12) ratio 1.0000 wins 4/5")
    assert lines[1] == "  per-pair ratios 0.9000 0.9091 1.0000 0.9231 0.9286"


def test_gain_needs_nine_wins_in_ten_and_a_median_beyond_the_parent_iqr():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    clear = [p - 0.2 for p in parent]
    (row, _) = ab.summarize([(_line(p, 1.0), _line(c, 1.0)) for p, c in zip(parent, clear)], RULES)
    assert row["wins"] == 10 and row["gain"]
    close = [p - 0.01 for p in parent]  # wins every pair, but inside the parent's spread
    (row, _) = ab.summarize([(_line(p, 1.0), _line(c, 1.0)) for p, c in zip(parent, close)], RULES)
    assert row["wins"] == 10 and not row["gain"]
    eight = clear[:8] + parent[8:]
    (row, _) = ab.summarize([(_line(p, 1.0), _line(c, 1.0)) for p, c in zip(parent, eight)], RULES)
    assert row["wins"] == 8 and not row["gain"]


def test_runs_alternate_and_an_incorrect_run_fails_the_comparison(tmp_path, capsys):
    calls = []
    lines = {"p": _line(0.1, 10.0), "c": _line(0.08, 12.5)}

    def fake(checkout, workload, seconds, seed):
        calls.append((checkout.name, workload, seconds, seed))
        return lines[checkout.name]

    (tmp_path / "c").mkdir()
    benchmark = {"end_to_end": [{"name": name, "better": better, "bound": bound}
                                for name, (better, bound) in RULES.items()]}
    (tmp_path / "c" / "BENCHMARK.json").write_text(json.dumps(benchmark))
    argv = [str(tmp_path / "p"), str(tmp_path / "c"), "--workload", "study_wsm_cli", "--pairs", "3", "--seconds", "2"]
    assert ab.main(argv, run=fake) == 0
    assert [c[0] for c in calls] == ["p", "c", "c", "p", "p", "c"]
    assert calls[0][1:] == ("study_wsm_cli", 2.0, 0)
    out = capsys.readouterr().out
    assert ("wall_s [s] parent 0.1 (0.1..0.1) child 0.08 (0.08..0.08) ratio 0.8000 wins 3/3 gain True "
            "worse False unresolved False") in out
    assert ("subproblems_per_s [1/s] parent 10 (10..10) child 12.5 (12.5..12.5) ratio 1.2500 wins 3/3 gain True "
            "worse False unresolved False") in out

    lines["c"] = _line(0.08, 12.5, correct=False)
    assert ab.main(argv, run=fake) == 1
    assert "NOT CORRECT" in capsys.readouterr().err
    lines["c"] = None  # the run printed no result line
    assert ab.main(argv, run=fake) == 1


def test_worse_needs_a_median_beyond_the_bound_in_the_metrics_direction():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04]
    for change, worse in ((0.24, False), (0.27, True)):  # bound 0.25 of the parent median
        pairs = [(_line(p, p), _line(p * (1 + change), p * (1 - change))) for p in parent]
        wall, rate = ab.summarize(pairs, RULES)  # a longer wall, a lower rate
        assert (wall["worse"], rate["worse"]) == (worse, worse)
        assert not wall["unresolved"] and not wall["gain"]
        # the same runs the other way round are a gain, never worse
        wall, rate = ab.summarize([(c, p) for p, c in pairs], RULES)
        assert not wall["worse"] and not rate["worse"] and wall["gain"] and rate["gain"]


def test_unresolved_when_either_side_spreads_beyond_the_bound():
    steady = [1.00, 1.01, 1.02, 1.03, 1.04]
    spread = [0.70, 0.80, 1.00, 1.20, 1.30]  # IQR 0.4 over median 1.0
    for parent, child in ((steady, spread), (spread, steady)):
        (row, _) = ab.summarize([(_line(p, 1.0), _line(c, 1.0)) for p, c in zip(parent, child)], RULES)
        assert row["unresolved"] and not row["worse"]
    # every child run beats every parent run: resolved, however wide the spread
    fast = [0.10, 0.20, 0.40, 0.50, 0.60]
    (row, _) = ab.summarize([(_line(p, 1.0), _line(c, 1.0)) for p, c in zip(spread, fast)], RULES)
    assert not row["unresolved"]
    lines = ab.format_rows([row], 5)
    assert lines[0].endswith("gain True worse False unresolved False")


def test_a_metric_without_a_bound_is_neither_worse_nor_resolved():
    pairs = [(_line(1.0, 1.0), _line(2.0, 1.0))]
    wall, rate = ab.summarize(pairs, {"wall_s": ("lower", None)})
    assert wall["worse"] is None and wall["unresolved"] is None
    assert rate["worse"] is None and rate["wins"] == 0  # absent: lower is better, and a tie


def test_rules_come_from_the_benchmark_file(tmp_path):
    assert ab.rules(tmp_path) == {}
    metrics = [{"name": "x", "better": "higher", "bound": 0.1}, {"name": "y", "better": "lower"}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    assert ab.rules(tmp_path) == {"x": ("higher", 0.1), "y": ("lower", None)}

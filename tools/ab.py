"""Alternating parent/child runs of ``perfbench/run.py``: medians, quartiles, per-pair ratios and wins.

    python3 tools/ab.py PARENT_DIR CHILD_DIR --workload study_wsm_cli --pairs 10 --seconds 25

Both directories are checkouts, for example a ``git worktree`` of the
parent commit and the working tree.  Each pair runs the parent's and the
child's own ``perfbench/run.py`` once each, in fresh processes; the parent
goes first in even pairs and the child in odd ones.  For every end-to-end
metric the script prints both sides' quartiles, each pair's child/parent
ratio and the child's wins, ties counting for neither side.  ``gain`` says
whether the child wins at least nine pairs in ten and its median is better
than the parent's by more than the parent's interquartile range.  With the
metric's ``bound`` from the child's ``BENCHMARK.json``, ``worse`` says
whether the child's median is worse than the parent's by more than ``bound``
times the parent's median, and ``unresolved`` whether either side's
interquartile range is wider than ``bound`` times its own median, unless
every child run beats every parent run; both are None for a metric without
a bound.

Exit codes: 0 when every run printed a result line reading ``"correct":
true``, 1 when one did not, 2 for invalid arguments.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def result_line(stdout: str) -> dict | None:
    """The final JSON result line of a ``run.py`` output, or None if it printed none."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return None


def run_checkout(checkout: Path, workload: str, seconds: float, seed: int) -> dict | None:
    """One ``perfbench/run.py`` run of ``checkout``, from its root."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    return result_line(proc.stdout)


def rules(checkout: Path) -> dict:
    """``(better, bound)`` of each end-to-end metric of the checkout's ``BENCHMARK.json``; empty without one."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: (m["better"], m.get("bound")) for m in json.loads(path.read_text()).get("end_to_end", [])}


def quartiles(values: list) -> tuple:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs: list, metric_rules: dict) -> list:
    """Per metric of the first parent result: quartiles, child/parent ratios, wins, gain, worse and unresolved."""
    rows = []
    for name, metric in pairs[0][0]["metrics"].items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        child = [c["metrics"][name]["value"] for _, c in pairs]
        better, bound = metric_rules.get(name, ("lower", None))
        sign = 1.0 if better == "lower" else -1.0  # positive: the child is better
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, child))
        qp, qc = quartiles(parent), quartiles(child)
        worse = unresolved = None
        if bound is not None:
            worse = sign * (qc[1] - qp[1]) > bound * abs(qp[1])
            separated = all(sign * (p - c) > 0 for p in parent for c in child)
            unresolved = not separated and any(q[2] - q[0] > bound * abs(q[1]) for q in (qp, qc))
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "parent": qp,
            "child": qc,
            "ratios": [c / p if p else float("nan") for p, c in zip(parent, child)],
            "wins": wins,
            "gain": 10 * wins >= 9 * len(pairs) and sign * (qp[1] - qc[1]) > qp[2] - qp[0],
            "worse": worse,
            "unresolved": unresolved,
        })
    return rows


def format_rows(rows: list, n_pairs: int) -> list:
    lines = []
    for row in rows:
        (p1, p2, p3), (c1, c2, c3) = row["parent"], row["child"]
        lines.append(
            f"{row['name']} [{row['unit']}] parent {p2:.6g} ({p1:.6g}..{p3:.6g}) child {c2:.6g} ({c1:.6g}..{c3:.6g}) "
            f"ratio {c2 / p2 if p2 else float('nan'):.4f} wins {row['wins']}/{n_pairs} gain {row['gain']} "
            f"worse {row['worse']} unresolved {row['unresolved']}"
        )
        lines.append("  per-pair ratios " + " ".join(f"{r:.4f}" for r in row["ratios"]))
    return lines


def main(argv=None, run=run_checkout) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("child", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    pairs, correct = [], True
    for i in range(args.pairs):
        order = ("parent", "child") if i % 2 == 0 else ("child", "parent")
        results = {}
        for side in order:
            result = run(getattr(args, side), args.workload, args.seconds, args.seed)
            ok = result is not None and result.get("correct") is True
            correct &= ok
            print(f"pair {i} {side}: {'correct' if ok else 'NOT CORRECT'}"
                  + (f" failed {result['failed']} of {result['attempted']}" if result else " (no result line)"),
                  file=sys.stderr)
            results[side] = result
        if results["parent"] and results["child"]:
            pairs.append((results["parent"], results["child"]))
    if pairs:
        print("\n".join(format_rows(summarize(pairs, rules(args.child)), len(pairs))))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Record the seed-0 outputs and counts that the benchmark's checks compare against.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: per workload, the objective pairs of
every front (or the convergence table) and the deterministic counts of
one unit of work.  Run it only on the commit whose numbers are the
reference; a later change whose outputs differ must not re-record them.
"""

import json
import shutil
import sys
import time

import run
import spec


def main() -> int:
    recorded = {}
    run.TMP.mkdir(exist_ok=True)
    try:
        for name in spec.WORKLOADS:
            job = {"workload": name, "quick": False, "seed": 0, "y": list(spec.desired_values(0, 0.0)),
                   "tmp": str(run.TMP), "mode": "record"}
            report = run._worker(job, time.monotonic() + 600.0)
            recorded[name] = {"output": report["output"], "counts": report["counts"]}
            print(name, json.dumps(report["counts"]))
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    (run.HERE / "expected.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

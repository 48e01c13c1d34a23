#!/usr/bin/env python3
"""Regenerate ``reference_report.json``: the ``report.csv`` values of the
full-size ``evaluate-all`` workload, per seed, as the checked-in program
computes them.

    python3 perfbench/make_reference.py

``run.py`` compares each ``evaluate-all`` operation against these values
within a relative tolerance of 1e-9; seeds outside ``SEEDS`` are checked
without them.  Regenerate only when a change is
meant to alter evaluation results, and say so in that change.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

SEEDS = range(32)


def main() -> int:
    run.import_program()
    import workloads

    table = {
        "workload": "evaluate-all",
        "size": "full",
        "columns": list(workloads.REPORT_VALUE_COLUMNS) + ["singular_hits"],
        "seeds": {},
    }
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT_DIR))
    try:
        for seed in SEEDS:
            workload = workloads.EvaluateAll(seed, "full", scratch)
            if workload.run_op() != 0:
                raise SystemExit(f"evaluate failed for seed {seed}")
            rows = workloads.read_report(workload.out / "report.csv")
            table["seeds"][str(seed)] = workloads.report_values(rows)
            print(f"seed {seed} done", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(format_table(table), encoding="utf-8")
    return 0


def format_table(table: dict) -> str:
    """JSON with one line per seed, so a regenerated table diffs by seed."""
    head = {k: v for k, v in table.items() if k != "seeds"}
    seeds = ",\n".join(
        f"  {json.dumps(seed)}: {json.dumps(rows)}" for seed, rows in table["seeds"].items()
    )
    return json.dumps(head)[:-1] + ', "seeds": {\n' + seeds + "\n}}\n"


if __name__ == "__main__":
    sys.exit(main())

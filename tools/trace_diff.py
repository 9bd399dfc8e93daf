#!/usr/bin/env python
"""Compare the deterministic metrics of two traced benchmark results.

Reads two ``perfbench/run.py --trace 1`` results, one from the base commit
and one from the change, and compares every metric whose unit is not
``s``, except ``trace.overhead_ratio`` (the ratio of two wall-clock
medians).  Those are the work counters and the ratios made from them
(``sat.conflicts``, ``sat.decisions``, ``smt.cnf_clauses``,
``sat.preprocess.clauses_out``, ``pdr.consecution_queries``, ...): with
the same workload and seed they repeat exactly, so a change meant to
leave the search alone must leave every one of them equal.

Each argument is a file holding the runner's standard output (its last
line is the result) or just that line.

Exit status: 0 when every compared metric is equal, 1 with one line per
differing metric otherwise, 2 when an input has no result line.

Usage::

    python3 perfbench/run.py --workload hpf-synth --seed 111 --seconds 40 --trace 1 > base.txt
    # ... the same on the change, into change.txt ...
    python3 tools/trace_diff.py base.txt change.txt
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Not a counter: traced over untraced wall-clock, minus one.
SKIPPED = {"trace.overhead_ratio"}


class _Missing:
    def __repr__(self) -> str:
        return "missing"


#: Stands for a metric one side does not report.
MISSING = _Missing()


class InputError(Exception):
    """An input holds no benchmark result line."""


def load_metrics(path: Path) -> dict[str, dict]:
    """The ``metrics`` of the last JSON result line in ``path``."""
    for line in reversed(path.read_text(encoding="utf-8").splitlines()):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            result = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(result, dict) and isinstance(result.get("metrics"), dict):
            return result["metrics"]
    raise InputError(f"{path}: no benchmark result line")


def compared(metrics: dict[str, dict]) -> dict[str, object]:
    """Metric name -> value, for the metrics that must repeat exactly."""
    return {
        name: entry.get("value")
        for name, entry in metrics.items()
        if entry.get("unit") != "s" and name not in SKIPPED
    }


def differences(base: dict[str, object], change: dict[str, object]) -> list[str]:
    """One line per metric that differs or is missing on one side."""
    lines = []
    for name in sorted(base.keys() | change.keys()):
        before, after = base.get(name, MISSING), change.get(name, MISSING)
        if before != after:
            lines.append(f"{name}: {before!r} -> {after!r}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: trace_diff.py BASE CHANGE", file=sys.stderr)
        return 2
    try:
        base, change = (compared(load_metrics(Path(arg))) for arg in args)
    except (InputError, OSError) as exc:
        print(f"trace_diff: {exc}", file=sys.stderr)
        return 2
    lines = differences(base, change)
    for line in lines:
        print(line)
    if lines:
        total = len(base.keys() | change.keys())
        print(f"trace_diff: {len(lines)} of {total} metric(s) differ", file=sys.stderr)
        return 1
    print(f"trace_diff: all {len(base)} metric(s) equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())

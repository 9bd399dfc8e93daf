"""Tests for tools/trace_diff.py, the traced-benchmark counter differ."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _result(values: dict) -> str:
    """A runner's output: a progress line, then the JSON result line."""
    units = {"sat.solve_s": "s", "trace.overhead_ratio": "ratio"}
    metrics = {name: {"value": v, "unit": units.get(name, "count")} for name, v in values.items()}
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
    return "hpf-synth seed 111: 1 untraced/traced pass pairs\n" + json.dumps(result) + "\n"


def _run(tmp_path: Path, base: str, change: str) -> subprocess.CompletedProcess:
    (tmp_path / "base.txt").write_text(base)
    (tmp_path / "change.txt").write_text(change)
    return subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "trace_diff.py"),
            str(tmp_path / "base.txt"),
            str(tmp_path / "change.txt"),
        ],
        capture_output=True,
        text=True,
    )


def test_equal_counters_pass_whatever_the_times(tmp_path):
    base = _result({"sat.conflicts": 12, "sat.solve_s": 1.5, "trace.overhead_ratio": 0.1})
    change = _result({"sat.conflicts": 12, "sat.solve_s": 0.9, "trace.overhead_ratio": 0.3})
    result = _run(tmp_path, base, change)
    assert result.returncode == 0, result.stdout + result.stderr


def test_each_differing_counter_is_listed(tmp_path):
    base = _result({"sat.conflicts": 12, "sat.decisions": 40})
    change = _result({"sat.conflicts": 13, "sat.decisions": 40, "pdr.frames": 2})
    result = _run(tmp_path, base, change)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "pdr.frames: missing -> 2",
        "sat.conflicts: 12 -> 13",
    ]


def test_input_without_a_result_line_exits_2(tmp_path):
    result = _run(tmp_path, _result({"sat.conflicts": 1}), "perfbench: a pass failed\n")
    assert result.returncode == 2
    assert "no benchmark result line" in result.stderr

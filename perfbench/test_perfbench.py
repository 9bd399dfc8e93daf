"""Self-test of the benchmark on a tiny draw.

Run from the repository root::

    python3 -m pytest perfbench -q

It checks the printed output against the benchmark contract, that traced
counters repeat for one seed, that traced spans nest inside their parents
(so the self times add up to the traced wall time), and that every layer
records calls on the workloads it is expected to move (which catches a
wrapper patched at the wrong binding).
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from worker import spans_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Layer time metric -> workloads on which the layer must record calls.
EXPECTED_WORK = {
    "synth.self_s": ["hpf-synth"],
    "zoo.replay_s": ["bug-hunt"],
    "lint.self_s": ["bug-hunt"],
    "qed.self_s": ["bug-hunt", "golden-pdr"],
    "ts.coi_s": ["bug-hunt", "golden-pdr"],
    "ts.unroll_s": ["bug-hunt"],
    "absint.self_s": ["bug-hunt", "golden-pdr"],
    "bmc.self_s": ["bug-hunt"],
    "bmc.trace_s": ["bug-hunt"],
    "pdr.self_s": ["golden-pdr"],
    "solve.self_s": WORKLOADS,
    "smt.blast_s": WORKLOADS,
    "aig.lower_s": WORKLOADS,
    "sat.preprocess.self_s": WORKLOADS,
    "sat.preprocess.extend_s": WORKLOADS,
    "sat.solve_s": WORKLOADS,
}

_cache: dict = {}


def bench(workload: str, trace: int, attempt: int = 0) -> dict:
    """The parsed last line of one tiny run (cached per argument tuple)."""
    key = (workload, trace, attempt)
    if key not in _cache:
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", workload,
                "--seed", "5",
                "--seconds", "1",
                "--trace", str(trace),
                "--scale", "tiny",
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        _cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _cache[key]


def check_contract(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert NAME.fullmatch(entry["name"])
        assert UNIT.fullmatch(metric["unit"]) and metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])


def test_declaration_within_limits():
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    for entry in SPEC["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_output(workload):
    result = bench(workload, 0)
    check_contract(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_output(workload):
    check_contract(bench(workload, 1), SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat(workload):
    def counters(result: dict) -> dict:
        return {
            name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] != "s" and name != "trace.overhead_ratio"
        }

    assert counters(bench(workload, 1)) == counters(bench(workload, 1, attempt=1))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest(workload):
    # Self times plus other.self_s add up to the traced wall time by
    # construction; they mean something only if every child span lies
    # inside its parent and all spans fit in the traced wall time.
    metrics = bench(workload, 1)["metrics"]
    assert metrics["other.self_s"]["value"] >= 0
    rows = spans_path(workload).read_text().splitlines()[1:]
    spans = [(float(s), float(e), int(p)) for _, s, e, p in (r.split("\t") for r in rows)]
    assert spans
    own = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][0] <= start and end <= spans[parent][1]
            own[parent] -= end - start
    assert min(own) >= -1e-9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_record_calls(workload):
    metrics = bench(workload, 1)["metrics"]
    idle = [
        name
        for name, workloads in EXPECTED_WORK.items()
        if workload in workloads and metrics[name]["value"] <= 0
    ]
    assert idle == []

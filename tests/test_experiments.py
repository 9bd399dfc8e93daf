"""Tests for the paper's experiment harnesses (:mod:`repro.experiments`).

Each harness is run on a configuration small enough for tier-1 and checked
for the paper's qualitative result, and each rejects a bug name outside
its own bug set instead of passing vacuously on an empty table.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

from repro.core.results import VerificationOutcome
from repro.errors import UnknownBugError
from repro.experiments import figure4, table1
from repro.experiments.figure3 import Figure3Config, run_figure3
from repro.experiments.figure4 import Figure4Config, run_figure4
from repro.experiments.table1 import Table1Config, Table1Result, Table1Row, run_table1
from repro.proc.bugs import single_instruction_bugs

REPO_ROOT = Path(__file__).parent.parent


class TestUnknownBugNames:
    def test_table1_rejects_a_misspelled_name(self):
        with pytest.raises(UnknownBugError, match="'single_add_off_by_on'"):
            run_table1(Table1Config(bug_names=["single_add_off_by_on"]))

    def test_table1_rejects_a_figure4_bug(self):
        with pytest.raises(UnknownBugError, match="'multi_no_forward_ex_rs1'"):
            run_table1(
                Table1Config(
                    bug_names=["single_add_off_by_one", "multi_no_forward_ex_rs1"]
                )
            )

    def test_figure4_rejects_a_misspelled_name(self):
        with pytest.raises(UnknownBugError, match="'multi_no_forward_ex_rs'"):
            run_figure4(Figure4Config(bug_names=["multi_no_forward_ex_rs"]))

    @pytest.mark.parametrize("module", [table1, figure4], ids=["table1", "figure4"])
    def test_cli_exits_with_usage_error(self, module, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", [module.__name__, "--bugs", "no_such_bug"])
        with pytest.raises(SystemExit) as excinfo:
            module.main()
        assert excinfo.value.code == 2
        assert "'no_such_bug'" in capsys.readouterr().err


def test_table1_sepe_detects_what_sqed_cannot():
    bug_names = [
        "single_add_off_by_one",
        "single_xor_as_or",
        "single_and_as_or",
        "single_xori_as_ori",
    ]
    result = run_table1(Table1Config(bug_names=bug_names, xlen=4, sqed_bound=3))
    assert [row.bug.name for row in result.rows] == bug_names
    for row in result.rows:
        assert row.sepe.detected is True, row.bug.name
        assert row.sepe.counterexample_length == 7, row.bug.name
        assert row.sqed.detected is False, row.bug.name
    assert result.all_detected_by_sepe and result.none_detected_by_sqed


def _sqed_outcome(detected: Optional[bool]) -> VerificationOutcome:
    return VerificationOutcome(
        method="SQED", bug_name=None, detected=detected, runtime_seconds=1.5, bound=3
    )


def test_table1_tells_an_exhausted_budget_from_a_finished_bound():
    sepe = VerificationOutcome(
        method="SEPE-SQED", bug_name=None, detected=True, runtime_seconds=0.5, bound=10
    )
    bugs = single_instruction_bugs()
    rows = [
        Table1Row(bugs[0], sepe, _sqed_outcome(True)),
        Table1Row(bugs[1], sepe, _sqed_outcome(False)),
        Table1Row(bugs[2], sepe, _sqed_outcome(None)),
    ]
    result = Table1Result(rows)
    cells = [line.split(" | ")[-1].strip() for line in result.render().splitlines()[2:]]
    assert cells == ["FALSE DETECTION 1.50s", "-", "inconclusive"]
    assert result.summary() == (
        "SEPE-SQED detected all: True; "
        "SQED detected 1, finished without detection 1, inconclusive 1"
    )
    assert not result.none_detected_by_sqed
    # An exhausted budget alone also keeps "SQED detected none" from holding.
    assert not Table1Result(rows[1:]).none_detected_by_sqed
    assert Table1Result([rows[1]]).none_detected_by_sqed


@pytest.mark.parametrize("module", ["table1", "figure3", "figure4"])
def test_cli_module_runs_once(module):
    # ``python -m`` warns (an error here) when the package has already
    # imported the module it is about to run as ``__main__``.
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         f"repro.experiments.{module}", "--help"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert result.returncode == 0, result.stderr


def test_figure3_hpf_priorities_carry_over_between_cases():
    # HPF finds SUB's program inside 32 multisets only with the priority
    # weights ADD's search left behind; fresh priorities per case find none.
    result = run_figure3(
        Figure3Config(cases=["ADD", "SUB"], target_programs=1, max_multisets=32)
    )
    assert len(result.hpf["ADD"].programs) == 1
    assert len(result.hpf["SUB"].programs) == 1

"""Tests for the paper's experiment harnesses (:mod:`repro.experiments`).

Each harness is run on a configuration small enough for tier-1 and checked
for the paper's qualitative result, and each rejects a bug name outside
its own bug set instead of passing vacuously on an empty table.
"""

from __future__ import annotations

import sys

import pytest

from repro.errors import UnknownBugError
from repro.experiments import figure4, table1
from repro.experiments.figure3 import Figure3Config, run_figure3
from repro.experiments.figure4 import Figure4Config, run_figure4
from repro.experiments.table1 import Table1Config, run_table1


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
    result = run_table1(
        Table1Config(bug_names=["single_add_off_by_one"], xlen=4, sqed_bound=3)
    )
    [row] = result.rows
    assert row.sepe.detected is True
    assert row.sepe.counterexample_length == 7
    assert row.sqed.detected is False
    assert result.all_detected_by_sepe and result.none_detected_by_sqed


def test_figure3_hpf_priorities_carry_over_between_cases():
    # HPF finds SUB's program inside 32 multisets only with the priority
    # weights ADD's search left behind; fresh priorities per case find none.
    result = run_figure3(
        Figure3Config(cases=["ADD", "SUB"], target_programs=1, max_multisets=32)
    )
    assert len(result.hpf["ADD"].programs) == 1
    assert len(result.hpf["SUB"].programs) == 1

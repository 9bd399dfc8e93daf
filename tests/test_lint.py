"""The repro.lint subsystem: model rules, encoding rules, the oracle gate, CLI.

Every rule is exercised in both directions — a fixture that trips it and
a clean fixture that passes it.  Parser-expressible rules use the BTOR2
corpus under ``tests/data/lint/``; the rest use in-code fixtures (see the
corpus README for the split).
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.btor.parser import parse_btor2
from repro.errors import Btor2Error, LintError, ReproError
from repro.lint import (
    LintFinding,
    LintReport,
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
    lint_aig,
    lint_cnf,
    lint_encoding_stats,
    lint_transition_system,
)
from repro.lint.cli import main as lint_main
from repro.sat.cnf import CNF
from repro.smt import terms as T
from repro.solve.pipeline import EncodingStats
from repro.ts.system import TransitionSystem

FIXTURES = Path(__file__).parent / "data" / "lint"
REPO_ROOT = Path(__file__).parent.parent


def load_fixture(stem: str) -> TransitionSystem:
    return parse_btor2((FIXTURES / f"{stem}.btor2").read_text(), name=stem)


def counter_ts(name: str = "counter") -> TransitionSystem:
    """A minimal clean system: a 4-bit counter with a real property."""
    ts = TransitionSystem(name=name)
    r = ts.add_state("r", 4, init=0)
    ts.set_next("r", T.bv_add(r, T.bv_const(1, 4)))
    ts.add_property("safe", T.bv_not(T.bv_eq(r, T.bv_const(15, 4))))
    return ts


# ---------------------------------------------------------------------------
# findings container
# ---------------------------------------------------------------------------


class TestFindings:
    def test_severity_is_validated(self):
        with pytest.raises(LintError):
            LintFinding("model.x", "fatal", "here", "boom")

    def test_report_slices_and_renders(self):
        report = LintReport()
        report.add("model.a", SEV_ERROR, "state x", "broken", "fix it")
        report.add("model.b", SEV_WARNING, "state y", "odd")
        report.add("model.c", SEV_INFO, "state z", "fyi")
        assert [f.rule for f in report.errors] == ["model.a"]
        assert report.rules() == {"model.a", "model.b", "model.c"}
        rendered = report.render()
        assert "error[model.a] state x: broken (hint: fix it)" in rendered
        assert len(report) == 3
        payload = report.as_dict()
        assert payload["counts"] == {"error": 1, "warning": 1, "info": 1}


# ---------------------------------------------------------------------------
# model lint: fixture corpus (parser-expressible rules)
# ---------------------------------------------------------------------------

FIXTURE_RULES = {
    "missing_next": {"model.missing-next"},
    "latch_no_init": {"model.latch-no-init"},
    "const_property": {"model.const-property"},
    "const_constraint": {"model.const-constraint"},
    "no_property": {"model.no-property"},
    "free_input": {"model.free-input-in-property"},
    "dead_latch": {"model.dead-latch"},
    "seq_const_latch": {"model.seq-const-latch"},
    "init_state_ref": {"model.init-state-ref", "model.comb-cycle"},
}


class TestModelLintFixtures:
    def test_clean_fixture_has_zero_findings(self):
        report = lint_transition_system(load_fixture("clean"))
        assert not report.findings, report.render()

    @pytest.mark.parametrize("stem", sorted(FIXTURE_RULES))
    def test_fixture_trips_exactly_its_rules(self, stem):
        report = lint_transition_system(load_fixture(stem))
        assert set(report.rules()) == FIXTURE_RULES[stem], report.render()

    def test_const_property_polarity(self):
        report = lint_transition_system(load_fixture("const_property"))
        by_sev = {f.location: f.severity for f in report.by_rule("model.const-property")}
        assert by_sev == {
            "property always_fails": SEV_ERROR,
            "property never_fails": SEV_WARNING,
        }

    def test_const_constraint_polarity(self):
        report = lint_transition_system(load_fixture("const_constraint"))
        severities = sorted(
            f.severity for f in report.by_rule("model.const-constraint")
        )
        assert severities == [SEV_ERROR, SEV_INFO]

    def test_comb_cycle_names_the_loop(self):
        report = lint_transition_system(load_fixture("init_state_ref"))
        [cycle] = report.by_rule("model.comb-cycle")
        assert "->" in cycle.message


# ---------------------------------------------------------------------------
# model lint: in-code fixtures (rules the parser cannot express)
# ---------------------------------------------------------------------------


class TestModelLintInCode:
    def test_width_mismatch_next(self):
        ts = counter_ts()
        state = next(s for s in ts.states if s.name == "r")
        # set_next() would reject this, which is exactly why generated
        # models that mutate StateVar fields directly are the risk.
        state.next = T.bv_const(0, 8)
        report = lint_transition_system(ts)
        assert "model.width-mismatch" in report.rules()
        assert report.errors

    def test_width_mismatch_init(self):
        ts = counter_ts()
        state = next(s for s in ts.states if s.name == "r")
        state.init = T.bv_const(0, 2)
        report = lint_transition_system(ts)
        [finding] = report.by_rule("model.width-mismatch")
        assert "init" in finding.message

    def test_undeclared_symbol_in_next(self):
        ts = counter_ts()
        state = next(s for s in ts.states if s.name == "r")
        state.next = T.bv_add(state.symbol, T.bv_var("ghost", 4))
        report = lint_transition_system(ts)
        [finding] = report.by_rule("model.undeclared-symbol")
        assert "ghost" in finding.message
        assert finding.severity == SEV_ERROR

    def test_undeclared_symbol_in_property_and_constraint(self):
        ts = counter_ts()
        ts.add_property("phantom", T.bv_eq(T.bv_var("ghost1", 1), T.bv_const(1, 1)))
        ts.add_constraint(T.bv_var("ghost2", 1))
        report = lint_transition_system(ts)
        assert len(report.by_rule("model.undeclared-symbol")) == 2

    def test_symbolic_init_is_info_only(self):
        # The QED "shared unknown initial value" idiom must stay legal.
        ts = counter_ts()
        ts.set_init("r", T.bv_var("r_init_reg", 4))
        report = lint_transition_system(ts)
        [finding] = report.by_rule("model.symbolic-init")
        assert finding.severity == SEV_INFO
        assert not report.errors

    def test_clean_in_code_system(self):
        assert not lint_transition_system(counter_ts()).findings


# ---------------------------------------------------------------------------
# model lint: shipped artifacts must be error-free
# ---------------------------------------------------------------------------


class TestShippedArtifactsLintClean:
    def test_btor2_model_has_no_errors(self, tmp_path):
        # The exported model is generated, not committed (*.btor2 is
        # gitignored), so produce a fresh one here.  Both steps run in
        # subprocesses: parsing the model interns its m1_* QED symbols in
        # the process-wide term manager, which would collide with the
        # differently-sized models other tests build.
        model = tmp_path / "sepe_sqed_model.btor2"
        env = {
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        export = subprocess.run(
            [sys.executable, "examples/export_btor2.py", str(model)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert export.returncode == 0, export.stdout + export.stderr
        # --encode-bound 3 also lints the BMC encoding: a frame constraint
        # that lowers to TRUE must not repeat the constant-true unit.
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(model), "--encode-bound", "3"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "encoding.dup-clause" not in result.stdout, result.stdout

    @pytest.mark.parametrize("buggy", [False, True])
    def test_pdr_designs_lint_clean(self, buggy):
        from repro.pdr import designs as D

        for builder in (
            D.saturating_counter,
            D.lockstep_accumulators,
            D.pipelined_accumulators,
        ):
            report = lint_transition_system(builder("d", buggy=buggy))
            # The absint-backed rules may surface genuine info-severity
            # facts (e.g. the saturating counter's stuck msb); shipped
            # designs must stay free of errors and warnings.
            noisy = [f for f in report.findings if f.severity != "info"]
            assert not noisy, f"{builder.__name__}: {report.render()}"

    def test_sqed_flow_model_has_no_errors(self, tiny_processor_config):
        from repro.core.flow import SqedFlow

        model = SqedFlow(tiny_processor_config).build_model()
        report = lint_transition_system(model.ts)
        assert not report.errors, report.render()


# ---------------------------------------------------------------------------
# encoding lint
# ---------------------------------------------------------------------------


class TestEncodingLint:
    def test_clean_cnf(self):
        cnf = CNF([[1, 2], [-1, 3]], num_vars=3)
        assert not lint_cnf(cnf).findings

    def test_cnf_rules_fire(self):
        cnf = CNF(num_vars=2)
        # Bypass add_clause on purpose: these artifacts are exactly what a
        # buggy producer that bypasses normalisation would emit.
        cnf.clauses.extend(
            [(), (1, 5), (1, 1, 2), (1, -1), (1, 2), (2, 1)]
        )
        report = lint_cnf(cnf)
        assert set(report.rules()) == {
            "encoding.empty-clause",
            "encoding.undefined-var",
            "encoding.dup-lit",
            "encoding.tautology",
            "encoding.dup-clause",
        }
        assert {f.rule for f in report.errors} == {
            "encoding.empty-clause",
            "encoding.undefined-var",
            "encoding.tautology",
        }

    def test_tautology_does_not_double_count_as_duplicate(self):
        cnf = CNF(num_vars=1)
        cnf.clauses.extend([(1, -1), (1, -1)])
        report = lint_cnf(cnf)
        assert len(report.by_rule("encoding.tautology")) == 2
        assert not report.by_rule("encoding.dup-clause")

    def test_clean_aig(self):
        from repro.aig.graph import AIG

        aig = AIG()
        a = aig.add_input()
        b = aig.add_input()
        g = aig.and_(a, b)
        report = lint_aig(aig, roots=[g])
        assert not report.findings

    def test_aig_order_violation_fires(self):
        from repro.aig.graph import AIG

        aig = AIG()
        a = aig.add_input()
        b = aig.add_input()
        aig.and_(a, b)
        gate = aig.num_nodes() + 1
        # Corrupt the stored args to reference the gate itself.
        aig._args[-1] = (gate, b)
        report = lint_aig(aig)
        assert "encoding.aig-order" in report.rules()

    def test_aig_dangling_needs_roots(self):
        from repro.aig.graph import AIG

        aig = AIG()
        a = aig.add_input()
        b = aig.add_input()
        used = aig.and_(a, b)
        aig.xor_(a, b)  # never referenced by the root
        assert not lint_aig(aig).findings  # no roots -> check skipped
        report = lint_aig(aig, roots=[used])
        [finding] = report.by_rule("encoding.aig-dangling")
        assert finding.severity == SEV_WARNING

    def test_encoding_stats_rules(self):
        clean = EncodingStats(
            cnf_clauses_pre=10, cnf_clauses_post=8, vars_eliminated=3, vars_restored=3
        )
        assert not lint_encoding_stats(clean).findings
        grown = dataclasses.replace(clean, cnf_clauses_post=14)
        [finding] = lint_encoding_stats(grown).findings
        assert finding.rule == "encoding.preprocess-regression"
        corrupt = dataclasses.replace(clean, vars_restored=5)
        [finding] = lint_encoding_stats(corrupt).findings
        assert finding.rule == "encoding.restore-imbalance"
        assert finding.severity == SEV_ERROR

    def test_real_bmc_encoding_lints_clean(self):
        from repro.bmc.engine import BmcSession

        ts = counter_ts()
        session = BmcSession(ts, "safe")
        stats = session.encode_to(3)
        blaster = session.context.blaster
        report = lint_cnf(blaster.cnf)
        report.extend(lint_encoding_stats(stats))
        assert not report.errors, report.render()


# ---------------------------------------------------------------------------
# the zoo oracle's up-front lint gate
# ---------------------------------------------------------------------------


class TestLintGate:
    def test_zoo_oracle_rejects_lint_tripping_model(self, monkeypatch):
        from repro.zoo import oracle as Z
        from repro.zoo.families import instantiate, sample_recipe

        instance = instantiate(sample_recipe("alu_op_swap", 0))

        def broken_lint(ts):
            report = LintReport()
            report.add("model.missing-next", SEV_ERROR, "state x", "injected")
            return report

        monkeypatch.setattr(Z, "lint_transition_system", broken_lint)
        report = Z.run_instance(instance, Z.OracleSettings())
        assert report.status == Z.STATUS_DISAGREEMENT
        assert "failed lint" in (report.failure or "")


# ---------------------------------------------------------------------------
# parser diagnostics (satellite)
# ---------------------------------------------------------------------------


class TestParserDiagnostics:
    def test_truncated_fixture_reports_line(self):
        with pytest.raises(Btor2Error) as exc_info:
            load_fixture("truncated")
        message = str(exc_info.value)
        assert "line 10" in message
        assert "truncated line" in message
        assert "8 next 1 5" in message  # the offending source line

    def test_garbled_fixture_reports_token(self):
        with pytest.raises(Btor2Error) as exc_info:
            load_fixture("garbled")
        message = str(exc_info.value)
        assert "line 6" in message
        assert "'banana'" in message


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_lints_a_file(self, capsys):
        assert lint_main([str(FIXTURES / "clean.btor2")]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_error_fixture_fails(self, capsys):
        assert lint_main([str(FIXTURES / "missing_next.btor2")]) == 1
        assert "model.missing-next" in capsys.readouterr().out

    def test_fail_on_controls_exit(self, capsys):
        warn_only = str(FIXTURES / "latch_no_init.btor2")
        assert lint_main([warn_only]) == 0
        assert lint_main([warn_only, "--fail-on", "warning"]) == 1
        bad = str(FIXTURES / "missing_next.btor2")
        assert lint_main([bad, "--fail-on", "never"]) == 0

    def test_json_output(self, capsys):
        assert (
            lint_main([str(FIXTURES / "dead_latch.btor2"), "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_errors"] == 0
        assert payload["total_warnings"] == 1
        [target] = payload["targets"].values()
        assert target["findings"][0]["rule"] == "model.dead-latch"

    def test_designs_lint_clean(self, capsys):
        assert lint_main(["--design", "all"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_unknown_design_is_usage_error(self, capsys):
        assert lint_main(["--design", "nonexistent"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_no_targets_is_usage_error(self, capsys):
        assert lint_main([]) == 2

    def test_missing_file_is_usage_error(self, capsys):
        assert lint_main(["definitely_missing.btor2"]) == 2

    def test_parse_error_is_usage_error(self, capsys):
        assert lint_main([str(FIXTURES / "garbled.btor2")]) == 2
        assert "line 6" in capsys.readouterr().err

    def test_encode_bound(self, capsys):
        assert (
            lint_main([str(FIXTURES / "clean.btor2"), "--encode-bound", "2"])
            == 0
        )

    def test_zoo_sample(self, capsys):
        assert lint_main(["--zoo-sample", "2", "--zoo-seed", "5"]) == 0
        assert "zoo:" in capsys.readouterr().out

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(FIXTURES / "clean.btor2")],
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


# ---------------------------------------------------------------------------
# repo self-lint (tools/selflint.py)
# ---------------------------------------------------------------------------


class TestSelfLint:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "selflint.py"), *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    def test_benchmarks_are_clean(self):
        result = self._run("benchmarks")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_src_tree_is_clean(self):
        result = self._run("src")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_default_roots_are_clean(self):
        # A bare run lints benchmarks, src, perfbench, tools and examples,
        # the same roots CI's self-lint step checks.
        result = self._run()
        assert result.returncode == 0, result.stdout + result.stderr

    def test_wallclock_gate_is_flagged(self, tmp_path):
        bad = tmp_path / "bench_bad.py"
        bad.write_text(
            "elapsed_seconds = 1.0\n"
            "baseline_seconds = 2.0\n"
            "assert elapsed_seconds < baseline_seconds\n"
        )
        result = self._run(str(bad))
        assert result.returncode == 1
        assert "bench_bad.py:3" in result.stdout

    def test_zero_guard_is_exempt(self, tmp_path):
        ok = tmp_path / "bench_guard.py"
        ok.write_text(
            "entry = {'seconds': 0.5}\n"
            "if entry['seconds'] > 0:\n"
            "    speed = 1 / entry['seconds']\n"
        )
        assert self._run(str(ok)).returncode == 0

    def test_allow_comment_suppresses(self, tmp_path):
        ok = tmp_path / "bench_allowed.py"
        ok.write_text(
            "a_seconds, b_seconds = 1.0, 2.0\n"
            "win = a_seconds < b_seconds  # selflint: allow-wallclock\n"
        )
        assert self._run(str(ok)).returncode == 0

    def test_missing_path_is_usage_error(self):
        assert self._run("definitely/missing/dir").returncode == 2

    def test_env_read_is_flagged(self, tmp_path):
        bad = tmp_path / "module.py"
        bad.write_text("import os\nvalue = os.environ.get('REPRO_X')\n")
        result = self._run(str(bad))
        assert result.returncode == 1
        assert "module.py:2" in result.stdout
        assert "environment read" in result.stdout

    def test_os_getenv_is_flagged(self, tmp_path):
        bad = tmp_path / "module.py"
        bad.write_text("import os\nvalue = os.getenv('REPRO_X')\n")
        assert self._run(str(bad)).returncode == 1

    def test_env_allow_comment_suppresses(self, tmp_path):
        ok = tmp_path / "module.py"
        ok.write_text(
            "import os\n"
            "value = os.environ.get('REPRO_X')  # selflint: allow-env\n"
        )
        assert self._run(str(ok)).returncode == 0

    def test_env_config_module_is_exempt(self, tmp_path):
        config = tmp_path / "solve" / "pipeline.py"
        config.parent.mkdir()
        config.write_text("import os\nvalue = os.environ.get('REPRO_X')\n")
        assert self._run(str(config)).returncode == 0

    def test_wallclock_rule_skipped_under_src(self, tmp_path):
        # Reporting-only timing comparisons are fine in src/ code; the
        # env rule still applies there.
        src = tmp_path / "src" / "report.py"
        src.parent.mkdir()
        src.write_text(
            "a_seconds, b_seconds = 1.0, 2.0\nfaster = a_seconds < b_seconds\n"
        )
        assert self._run(str(src)).returncode == 0

"""Tests for the persistent incremental solver context (:mod:`repro.solve`).

The load-bearing property is *incremental-vs-oneshot equivalence*: a reused
``SolverContext`` must return exactly the verdicts (and valid models) that
fresh per-query solving returns, across the BMC, k-induction and CEGIS
workloads that now share it.
"""

from __future__ import annotations

import os
import stat
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SmtError, SolveError
from repro.smt import terms as T
from repro.smt.bitblast import BitBlaster
from repro.smt.evaluator import evaluate, free_variables
from repro.smt.solver import BVSolver, check_sat
from repro.solve import (
    CdclBackend,
    DimacsBackend,
    SolverContext,
    create_backend,
)
from repro.bmc.engine import BmcEngine, BmcSession
from repro.bmc.kinduction import KInductionEngine
from repro.synth.cegis import CegisConfig, CegisEngine
from repro.synth.spec import spec_from_instruction
from repro.qed.equivalents import (
    default_equivalent_programs,
    verify_equivalence,
    verify_equivalences,
)
from repro.ts.system import TransitionSystem
from repro.utils.bitops import mask

W = 5


def _vars(prefix: str) -> tuple[T.BV, T.BV]:
    return T.bv_var(f"{prefix}_x", W), T.bv_var(f"{prefix}_y", W)


def _counter_system(prefix: str, limit: int, buggy: bool = False) -> TransitionSystem:
    """The same saturating counter used by the BMC tests."""
    ts = TransitionSystem(name=f"{prefix}_counter")
    count = ts.add_state(f"{prefix}_count", 4, init=0)
    enable = ts.add_input(f"{prefix}_enable", 1)
    incremented = T.bv_add(count, T.bv_const(1, 4))
    if buggy:
        next_count = T.bv_ite(T.bv_eq(enable, T.bv_true()), incremented, count)
    else:
        at_limit = T.bv_ule(T.bv_const(limit, 4), count)
        next_count = T.bv_ite(
            T.bv_and(T.bv_eq(enable, T.bv_true()), T.bv_not(at_limit)),
            incremented,
            count,
        )
    ts.set_next(count, next_count)
    ts.add_property("bounded", T.bv_ule(count, T.bv_const(limit, 4)))
    return ts


class TestGateCache:
    def test_identical_gates_share_literals(self):
        x, y = _vars("gc1")
        blaster = BitBlaster()
        first = blaster.blast(T.bv_add(x, y))
        clauses_after_first = len(blaster.cnf.clauses)
        # A distinct term with identical gate structure after the top node.
        second = blaster.blast(T.bv_not(T.bv_add(x, y)))
        assert second == [-lit for lit in first]
        assert len(blaster.cnf.clauses) == clauses_after_first

    def test_structurally_equal_subterms_blast_once(self):
        x, y = _vars("gc2")
        blaster = BitBlaster()
        blaster.blast(T.bv_and(x, y))
        clauses_before = len(blaster.cnf.clauses)
        # xor(x, y) shares no node with and(x, y), but or = -and(-x,-y) style
        # reuse still goes through the same gate cache when structure repeats.
        blaster.blast(T.bv_and(y, x))  # hash-consing: same term, term cache
        blaster.blast(T.bv_not(T.bv_and(x, y)))  # new term, same gates
        assert len(blaster.cnf.clauses) == clauses_before

    def test_xor_negation_normalisation(self):
        x, y = _vars("gc3")
        blaster = BitBlaster()
        plain = blaster.blast(T.bv_xor(x, y))
        clauses_after = len(blaster.cnf.clauses)
        negated = blaster.blast(T.bv_xor(T.bv_not(x), y))
        assert negated == [-lit for lit in plain]
        assert len(blaster.cnf.clauses) == clauses_after


class TestModelAvailability:
    def test_need_model_false_refuses_value_of(self):
        """A verdict-only check must not silently evaluate an all-zeros model."""
        x, y = _vars("nm1")
        ctx = SolverContext()
        ctx.add(T.bv_eq(x, T.bv_const(3, W)))
        ctx.add(T.bv_ult(x, y))
        result = ctx.check(need_model=False)
        assert result.satisfiable is True
        assert result.has_model is False
        with pytest.raises(SmtError, match="need_model"):
            result.value_of(x)

    def test_need_model_true_evaluates(self):
        x, _ = _vars("nm2")
        ctx = SolverContext()
        ctx.add(T.bv_eq(x, T.bv_const(3, W)))
        result = ctx.check()
        assert result.has_model is True
        assert result.value_of(T.bv_add(x, x)) == 6

    def test_empty_model_on_variable_free_formula_still_evaluates(self):
        ctx = SolverContext()
        ctx.add(T.bv_eq(T.bv_const(1, W), T.bv_const(1, W)))
        result = ctx.check()
        assert result.satisfiable is True and result.model == {}
        assert result.value_of(T.bv_const(4, W)) == 4


class TestTermLevelCores:
    """Failed-assumption cores lifted back to the assumption terms."""

    def test_core_subset_and_recheck(self):
        x, y = _vars("core1")
        ctx = SolverContext()
        ctx.add(T.bv_ult(x, T.bv_const(8, W)))
        a1 = T.bv_eq(x, T.bv_const(9, W))  # contradicts the assertion
        a2 = T.bv_eq(y, T.bv_const(3, W))  # irrelevant
        result = ctx.check(assumptions=[a1, a2])
        assert result.satisfiable is False
        assert result.core is not None and result.core
        assert {term.tid for term in result.core} <= {a1.tid, a2.tid}
        assert all(term.tid != a2.tid for term in result.core)
        # Re-checking under only the core stays UNSAT, and the context is
        # still usable afterwards.
        assert ctx.check(assumptions=result.core).satisfiable is False
        assert ctx.check(assumptions=[a2]).satisfiable is True

    def test_joint_assumption_core(self):
        x, y = _vars("core2")
        ctx = SolverContext()
        ctx.add(T.bv_eq(T.bv_add(x, y), T.bv_const(4, W)))
        a1 = T.bv_eq(x, T.bv_const(10, W))
        a2 = T.bv_eq(y, T.bv_const(10, W))
        result = ctx.check(assumptions=[a1, a2])
        assert result.satisfiable is False
        assert result.core
        assert ctx.check(assumptions=result.core).satisfiable is False

    def test_empty_core_means_root_unsat(self):
        x, _ = _vars("core3")
        ctx = SolverContext()
        ctx.add(T.bv_eq(x, T.bv_const(1, W)))
        ctx.add(T.bv_eq(x, T.bv_const(2, W)))
        result = ctx.check(assumptions=[T.bv_ult(x, T.bv_const(4, W))])
        assert result.satisfiable is False
        assert result.core == []

    def test_const_false_assumption_is_its_own_core(self):
        ctx = SolverContext()
        result = ctx.check(assumptions=[T.bv_false()])
        assert result.satisfiable is False
        assert result.core is not None and len(result.core) == 1
        assert result.core[0].tid == T.bv_false().tid

    def test_core_excludes_scope_activations(self):
        # Scoped assertions participate in the conflict but never leak into
        # the term-level core — it stays a subset of the assumptions.
        x, _ = _vars("core4")
        ctx = SolverContext()
        ctx.push()
        ctx.add(T.bv_eq(x, T.bv_const(5, W)))
        bad = T.bv_eq(x, T.bv_const(6, W))
        result = ctx.check(assumptions=[bad])
        assert result.satisfiable is False
        assert result.core is not None
        assert {term.tid for term in result.core} <= {bad.tid}
        ctx.pop()
        assert ctx.check(assumptions=[bad]).satisfiable is True

    def test_sat_has_no_core(self):
        x, _ = _vars("core5")
        ctx = SolverContext()
        result = ctx.check(assumptions=[T.bv_eq(x, T.bv_const(2, W))])
        assert result.satisfiable is True
        assert result.core is None


class TestPerCallBudget:
    def test_two_budgeted_checks_on_one_context(self):
        """Regression: a reused backend must not erode later call budgets.

        Two identical hard queries with the same budget on one context must
        both come back undecided after doing the same amount of fresh work —
        before the fix the second call saw the budget already exhausted by
        the first call's conflicts and returned immediately.
        """
        xs = [T.bv_var(f"budget_x{i}", 8) for i in range(6)]
        ctx = SolverContext()
        # A SAT-hard-ish query: pairwise-distinct mid-width variables whose
        # sum is constrained — enough search to burn a small budget.
        ctx.add(T.bv_distinct(xs))
        total = xs[0]
        for x in xs[1:]:
            total = T.bv_add(total, x)
        hard = T.bv_eq(T.bv_mul(total, total), T.bv_const(77, 8))
        first = ctx.check(assumptions=[hard], conflict_budget=3)
        assert first.satisfiable is None
        assert first.stats.conflicts >= 3
        second = ctx.check(assumptions=[hard], conflict_budget=3)
        assert second.satisfiable is None
        # The second call did its own three conflicts of work rather than
        # bouncing off an already-spent budget.
        assert second.stats.conflicts >= 3


class TestScopes:
    def test_push_pop_restores_satisfiability(self):
        x, _ = _vars("sc1")
        ctx = SolverContext()
        ctx.add(T.bv_ult(x, T.bv_const(8, W)))
        ctx.push()
        ctx.add(T.bv_eq(x, T.bv_const(9, W)))
        assert ctx.check().satisfiable is False
        ctx.pop()
        result = ctx.check()
        assert result.satisfiable and result.model[x.name] < 8

    def test_nested_scopes(self):
        x, y = _vars("sc2")
        ctx = SolverContext()
        ctx.add(T.bv_ult(x, y))
        ctx.push()
        ctx.add(T.bv_eq(y, T.bv_const(3, W)))
        ctx.push()
        ctx.add(T.bv_eq(x, T.bv_const(2, W)))
        result = ctx.check()
        assert result.satisfiable and result.model[x.name] == 2
        ctx.pop()
        ctx.add(T.bv_eq(x, T.bv_const(7, W)))  # lands in the outer scope
        assert ctx.check().satisfiable is False
        ctx.pop()
        assert ctx.check().satisfiable
        assert ctx.scope_depth == 0

    def test_const_false_in_scope_is_retractable(self):
        x, _ = _vars("sc3")
        ctx = SolverContext()
        ctx.add(T.bv_eq(x, T.bv_const(1, W)))
        ctx.push()
        ctx.add(T.bv_false())
        assert ctx.check().satisfiable is False
        ctx.pop()
        assert ctx.check().satisfiable

    def test_pop_without_push_raises(self):
        with pytest.raises(SolveError):
            SolverContext().pop()

    def test_width_checks(self):
        x, _ = _vars("sc4")
        ctx = SolverContext()
        with pytest.raises(SmtError):
            ctx.add(x)
        with pytest.raises(SmtError):
            ctx.check(assumptions=[x])


values = st.integers(min_value=0, max_value=mask(W))


class TestIncrementalVsOneshot:
    """A reused context agrees with fresh per-query solving."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(values, st.sampled_from(["ult", "eq", "ne", "ule"])), min_size=1, max_size=6))
    def test_scoped_queries_match_fresh_solvers(self, queries):
        x, y = _vars("prop")
        base = T.bv_eq(T.bv_add(x, y), T.bv_const(7, W))
        builders = {
            "ult": lambda c: T.bv_ult(x, T.bv_const(c, W)),
            "ule": lambda c: T.bv_ule(y, T.bv_const(c, W)),
            "eq": lambda c: T.bv_eq(x, T.bv_const(c, W)),
            "ne": lambda c: T.bv_ne(y, T.bv_const(c, W)),
        }
        ctx = SolverContext()
        ctx.add(base)
        for constant, kind in queries:
            extra = builders[kind](constant)
            ctx.push()
            ctx.add(extra)
            incremental = ctx.check()
            ctx.pop()
            oneshot = check_sat([base, extra])
            assert incremental.satisfiable == oneshot.satisfiable
            if incremental.satisfiable:
                model = {
                    name: incremental.model.get(name, 0) for name in (x.name, y.name)
                }
                assert evaluate(base, model) == 1
                assert evaluate(extra, model) == 1

    @settings(max_examples=20, deadline=None)
    @given(st.lists(values, min_size=1, max_size=6))
    def test_assumption_queries_match_fresh_solvers(self, constants):
        x, y = _vars("assume")
        base = T.bv_ult(x, y)
        ctx = SolverContext()
        ctx.add(base)
        for constant in constants:
            assumption = T.bv_eq(x, T.bv_const(constant, W))
            incremental = ctx.check(assumptions=[assumption])
            oneshot = check_sat([base, assumption])
            assert incremental.satisfiable == oneshot.satisfiable


class TestBmcIncremental:
    def test_session_extension_matches_fresh_engines(self):
        session = BmcSession(_counter_system("inc_bmc", 5), "bounded")
        for bound in (2, 5, 8):
            fresh = BmcEngine(_counter_system(f"one_bmc_{bound}", 5)).check(
                "bounded", bound=bound
            )
            extended = session.extend_to(bound)
            assert extended.holds is fresh.holds is True

    def test_session_finds_same_counterexample_depth(self):
        session = BmcSession(_counter_system("inc_bug", 4, buggy=True), "bounded")
        assert session.extend_to(3).holds is True
        incremental = session.extend_to(10)
        fresh = BmcEngine(_counter_system("one_bug", 4, buggy=True)).check(
            "bounded", bound=10
        )
        assert incremental.holds is False and fresh.holds is False
        assert incremental.bound == fresh.bound
        assert (
            incremental.counterexample_length == fresh.counterexample_length
        )

    def test_bmc_solver_stats_populated(self):
        result = BmcEngine(_counter_system("stats_bmc", 4, buggy=True)).check(
            "bounded", bound=8
        )
        assert result.holds is False
        assert result.stats.solver_stats.decisions > 0
        assert result.stats.solver_stats.propagations > 0


class TestKInductionIncremental:
    def test_proof_matches_seed_behaviour(self):
        ts = TransitionSystem(name="kind_stable")
        flag = ts.add_state("kind_flag", 1, init=0)
        ts.set_next(flag, flag)
        ts.add_property("never_set", T.bv_eq(flag, T.bv_const(0, 1)))
        result = KInductionEngine(ts).prove("never_set", max_k=2)
        assert result.proven is True

    def test_refutation_via_base_case(self):
        ts = _counter_system("kind_bug", 4, buggy=True)
        result = KInductionEngine(ts).prove("bounded", max_k=8)
        assert result.proven is False
        assert result.base_result is not None and result.base_result.holds is False

    def test_non_inductive_property_stays_unknown(self):
        # Saturates at 6 but claims <= 5: every short base case passes, yet
        # the step can always start from count == 5 and reach 6, so no small
        # k closes the induction.
        ts = TransitionSystem(name="kind_unknown_counter")
        count = ts.add_state("kind_unknown_count", 4, init=0)
        enable = ts.add_input("kind_unknown_enable", 1)
        at_limit = T.bv_ule(T.bv_const(6, 4), count)
        ts.set_next(
            count,
            T.bv_ite(
                T.bv_and(T.bv_eq(enable, T.bv_true()), T.bv_not(at_limit)),
                T.bv_add(count, T.bv_const(1, 4)),
                count,
            ),
        )
        ts.add_property("bounded", T.bv_ule(count, T.bv_const(5, 4)))
        result = KInductionEngine(ts).prove("bounded", max_k=2)
        assert result.proven is None


class TestCegisIncremental:
    @pytest.fixture(scope="class")
    def spec_and_components(self, small_isa, small_library):
        spec = spec_from_instruction("XOR", small_isa)
        names = ["OR", "AND", "SUB"]
        return spec, [small_library.by_name(name) for name in names]

    def test_incremental_and_oneshot_agree(self, spec_and_components):
        spec, components = spec_and_components
        incremental = CegisEngine(CegisConfig(incremental=True)).synthesize(
            spec, components
        )
        oneshot = CegisEngine(CegisConfig(incremental=False)).synthesize(
            spec, components
        )
        assert incremental.succeeded and oneshot.succeeded
        assert verify_equivalence(incremental.program)
        assert verify_equivalence(oneshot.program)

    def test_solver_stats_per_phase(self, spec_and_components):
        spec, components = spec_and_components
        outcome = CegisEngine().synthesize(spec, components)
        assert outcome.succeeded
        stats = outcome.stats
        assert stats.synthesis_solver_stats.decisions > 0
        assert stats.verification_solver_stats.propagations > 0


class TestSharedEquivalenceChecking:
    def test_batch_verification_on_one_context(self, small_isa):
        programs = default_equivalent_programs(
            small_isa, ops=["ADD", "SUB", "XOR", "OR", "AND"]
        )
        shared = verify_equivalences(programs)
        assert shared == {op: True for op in programs}
        # Fresh-context verdicts agree program by program.
        for program in programs.values():
            assert verify_equivalence(program)


class TestBackends:
    def test_create_backend_specs(self):
        assert isinstance(create_backend("cdcl"), CdclBackend)
        backend = CdclBackend()
        assert create_backend(backend) is backend
        with pytest.raises(SolveError):
            create_backend("unknown-backend")
        with pytest.raises(SolveError):
            create_backend("dimacs:")
        with pytest.raises(SolveError):
            create_backend("dimacs:definitely-not-a-solver-binary")

    def test_backend_instance_cannot_serve_two_contexts(self):
        # A backend holds clauses numbered by one blaster; sharing it with a
        # second context would silently mix variable spaces.
        backend = CdclBackend()
        SolverContext(backend=backend)
        with pytest.raises(SolveError):
            SolverContext(backend=backend)

    @staticmethod
    def _install_script(tmp_path, monkeypatch, name: str, body: str) -> str:
        """Put an executable Python script called ``name`` first on PATH."""
        script = tmp_path / name
        script.write_text(f"#!{sys.executable}\n{body}")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        monkeypatch.setenv("PATH", str(tmp_path), prepend=os.pathsep)
        return name

    @pytest.fixture()
    def stub_solver(self, tmp_path, monkeypatch):
        """A DIMACS 'solver' that answers with the builtin CDCL engine."""
        repo_src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        return self._install_script(
            tmp_path,
            monkeypatch,
            "stub-sat-solver",
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.sat.cnf import parse_dimacs\n"
            "from repro.sat.solver import SatSolver\n"
            "with open(sys.argv[1]) as fh:\n"
            "    cnf = parse_dimacs(fh.read())\n"
            "result = SatSolver(cnf).solve()\n"
            "if result.satisfiable:\n"
            "    print('s SATISFIABLE')\n"
            "    lits = [v if val else -v for v, val in sorted(result.model.items())]\n"
            "    print('v ' + ' '.join(map(str, lits)) + ' 0')\n"
            "    sys.exit(10)\n"
            "print('s UNSATISFIABLE')\n"
            "sys.exit(20)\n" % os.path.abspath(repo_src),
        )

    def test_dimacs_backend_rejects_malformed_model_line(self, tmp_path, monkeypatch):
        name = self._install_script(
            tmp_path,
            monkeypatch,
            "garbled-sat-solver",
            "import sys\n"
            "print('s SATISFIABLE')\n"
            "print('v 1 -2 oops 0')\n"
            "sys.exit(10)\n",
        )
        ctx = SolverContext(backend=f"dimacs:{name}")
        x, _ = _vars("garbled")
        ctx.add(T.bv_eq(x, T.bv_const(1, W)))
        with pytest.raises(SolveError, match="garbled-sat-solver"):
            ctx.check()

    def test_dimacs_backend_roundtrip(self, stub_solver):
        ctx = SolverContext(backend=f"dimacs:{stub_solver}")
        x, y = _vars("dim")
        ctx.add(T.bv_eq(T.bv_add(x, y), T.bv_const(9, W)))
        result = ctx.check()
        assert result.satisfiable
        assert (result.model[x.name] + result.model[y.name]) & mask(W) == 9
        ctx.push()
        ctx.add(T.bv_eq(x, T.bv_const(1, W)))
        scoped = ctx.check()
        assert scoped.satisfiable and scoped.model[x.name] == 1
        ctx.pop()
        assert ctx.check(assumptions=[T.bv_ult(x, x)]).satisfiable is False

    def test_dimacs_backend_agrees_with_cdcl(self, stub_solver):
        backend_spec = f"dimacs:{stub_solver}"
        x, y = _vars("dimeq")
        constraints = [
            [T.bv_ult(x, y), T.bv_ult(y, x)],
            [T.bv_eq(T.bv_and(x, y), T.bv_const(3, W)), T.bv_ult(x, T.bv_const(4, W))],
        ]
        for terms in constraints:
            external = SolverContext(backend=backend_spec)
            external.add_all(terms)
            builtin = SolverContext()
            builtin.add_all(terms)
            assert external.check().satisfiable == builtin.check().satisfiable

    def test_dimacs_backend_cores(self, stub_solver):
        # External solvers cannot minimise, but the core contract still
        # holds: a subset of the assumptions (here: all of them), still
        # UNSAT when re-checked, and empty exactly on root UNSAT.
        ctx = SolverContext(backend=f"dimacs:{stub_solver}")
        x, _ = _vars("dimcore")
        ctx.add(T.bv_ult(x, T.bv_const(8, W)))
        a1 = T.bv_eq(x, T.bv_const(9, W))
        a2 = T.bv_eq(x, T.bv_const(3, W))
        result = ctx.check(assumptions=[a1, a2])
        assert result.satisfiable is False
        assert result.core is not None and result.core
        assert {t.tid for t in result.core} <= {a1.tid, a2.tid}
        assert ctx.check(assumptions=result.core).satisfiable is False
        # Root UNSAT: the clause set alone is contradictory -> empty core.
        ctx.add(T.bv_eq(x, T.bv_const(1, W)))
        ctx.add(T.bv_eq(x, T.bv_const(2, W)))
        rooted = ctx.check(assumptions=[a2])
        assert rooted.satisfiable is False
        assert rooted.core == []


class TestFacade:
    def test_bvsolver_reuses_one_context(self):
        solver = BVSolver()
        x, y = _vars("fac")
        solver.add(T.bv_ult(x, y))
        first = solver.check()
        clauses_after_first = solver.context.num_clauses
        second = solver.check()
        assert first.satisfiable and second.satisfiable
        # No re-blasting: the clause count is unchanged between checks.
        assert solver.context.num_clauses == clauses_after_first

    def test_free_variable_cache_covers_model(self):
        solver = BVSolver()
        x, y = _vars("cache")
        solver.add(T.bv_eq(x, T.bv_const(3, W)))
        solver.add(T.bv_eq(y, T.bv_const(4, W)))
        result = solver.check()
        assert result.model == {x.name: 3, y.name: 4}
        assert result.value_of(T.bv_add(x, y)) == 7

    def test_result_stats_are_per_query(self):
        solver = BVSolver()
        x, y = _vars("pq")
        solver.add(T.bv_eq(T.bv_mul(x, y), T.bv_const(12, W)))
        first = solver.check(assumptions=[T.bv_ult(x, y)])
        second = solver.check(assumptions=[T.bv_ult(y, x)])
        assert first.satisfiable and second.satisfiable
        total = solver.stats
        assert total.propagations >= (
            first.stats.propagations + second.stats.propagations
        )

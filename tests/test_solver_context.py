"""Tests for the persistent incremental solver context (:mod:`repro.solve`).

The load-bearing property is *incremental-vs-oneshot equivalence*: a reused
``SolverContext`` must return exactly the verdicts (and valid models) that
fresh per-query solving returns, across the BMC, k-induction and CEGIS
workloads that now share it.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SmtError, SolveError
from repro.smt import terms as T
from repro.smt.bitblast import BitBlaster
from repro.smt.evaluator import evaluate, free_variables
from repro.sat.arena import ArenaSolver
from repro.sat.solver import SatSolver
from repro.solve import SolverContext
from repro.bmc.engine import BmcEngine, BmcSession
from repro.bmc.kinduction import KInductionEngine
from repro.synth.cegis import CegisEngine
from repro.synth.spec import spec_from_instruction
from repro.qed.equivalents import verify_equivalence
from repro.ts.system import TransitionSystem
from repro.utils.bitops import mask

W = 5


def _vars(prefix: str) -> tuple[T.BV, T.BV]:
    return T.bv_var(f"{prefix}_x", W), T.bv_var(f"{prefix}_y", W)


def _oneshot(terms: list[T.BV]):
    """The fresh-solver reference: a new context for a single query."""
    ctx = SolverContext()
    ctx.add_all(terms)
    return ctx.check()


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


class TestPreprocessedDecisions:
    """At ``opt_level=2`` the arena never decides an eliminated variable.

    Bounded variable elimination removes a variable from every clause the
    backend holds, so deciding it is wasted work on every SAT answer; the
    arena decides only variables that occur in a clause, and
    ``extend_model`` completes the eliminated ones afterwards.
    """

    def test_eliminated_variables_are_never_decided(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_BACKEND", "arena")
        x, y, z = (T.bv_var(f"elim_{name}", W) for name in "xyz")
        ctx = SolverContext(opt_level=2)
        solver = ctx.backend._solver
        pre = ctx._pre
        decided: list[int] = []
        eliminated_decisions: list[int] = []
        decide = solver._decide

        def recording() -> int:
            var = decide()
            if var:
                decided.append(var)
                if pre.is_eliminated(var):
                    eliminated_decisions.append(var)
            return var

        solver._decide = recording
        ctx.add(T.bv_eq(T.bv_add(T.bv_mul(x, y), z), T.bv_const(13, W)))
        ctx.add(T.bv_ne(x, T.bv_const(0, W)))
        queries = [
            [],
            [T.bv_ult(y, T.bv_const(3, W))],
            [T.bv_ult(x, y), T.bv_ne(z, T.bv_const(13, W))],
            [T.bv_eq(T.bv_xor(x, z), T.bv_const(6, W))],
        ]
        sat_answers = 0
        for assumptions in queries:
            ctx.push()
            ctx.add(T.bv_ule(z, T.bv_add(x, T.bv_const(20, W))))
            result = ctx.check(assumptions=assumptions)
            if result.satisfiable:
                sat_answers += 1
                model = {
                    var.name: result.model.get(var.name, 0) for var in (x, y, z)
                }
                for term in (*ctx.assertions, *assumptions):
                    assert evaluate(term, model) == 1
            ctx.pop()
        assert ctx.encoding_stats().vars_eliminated > 0
        assert sat_answers >= 2
        assert decided
        assert eliminated_decisions == []


class TestAssumptionsFrozenBeforeFlush:
    """A query's assumption variables are frozen before the flush it triggers.

    The assumption ``x + y == 5`` is blasted into a gate whose output only
    the query mentions; unfrozen, the flush would eliminate it and the query
    would have to restore it (and every variable its clauses reference).
    """

    @pytest.mark.parametrize("encode_first", [False, True])
    def test_flush_never_eliminates_an_assumed_literal(self, encode_first):
        x, y = _vars("frozen_assumption")
        ctx = SolverContext(opt_level=2)
        ctx.add(T.bv_ult(x, y))
        assumption = T.bv_eq(T.bv_add(x, y), T.bv_const(5, W))
        if encode_first:
            ctx.encode(assumptions=[assumption])
            assert ctx.encoding_stats().vars_restored == 0
        result = ctx.check(assumptions=[assumption])
        assert result.satisfiable is True
        model = {var.name: result.model.get(var.name, 0) for var in (x, y)}
        assert evaluate(T.bv_ult(x, y), model) == 1
        assert evaluate(assumption, model) == 1
        stats = ctx.encoding_stats()
        assert stats.vars_eliminated > 0
        assert stats.vars_restored == 0


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
        with pytest.raises(SmtError):
            ctx.add_clause([T.bv_true(), x])
        assert ctx.assertions == []


def _bit_literals(prefix: str) -> list[T.BV]:
    """The eight bits of a fresh byte variable, every other one negated."""
    x = T.bv_var(f"{prefix}_x", 8)
    bits = [T.bv_extract(x, i, i) for i in range(8)]
    return [bit if i % 2 else T.bv_not(bit) for i, bit in enumerate(bits)]


#: Width-1 terms the randomized clause differential draws literals from.
_CX, _CY = T.bv_var("clause_x", 3), T.bv_var("clause_y", 3)
_CLAUSE_POOL = [
    *(T.bv_extract(_CX, i, i) for i in range(3)),
    *(T.bv_not(T.bv_extract(_CY, i, i)) for i in range(3)),
    T.bv_ult(_CX, _CY),
    T.bv_eq(_CX, T.bv_const(5, 3)),
    T.bv_not(T.bv_eq(_CY, T.bv_const(2, 3))),
    T.bv_true(),
    T.bv_false(),
]
_pool_picks = st.lists(st.integers(0, len(_CLAUSE_POOL) - 1), max_size=4)
_clause_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push")),
        st.tuples(st.just("pop")),
        st.tuples(st.just("clause"), _pool_picks),
        st.tuples(st.just("check"), _pool_picks),
    ),
    min_size=1,
    max_size=12,
)


class TestAddClause:
    """``add_clause(lits)`` is ``add(bv_or_all(lits))`` as one CNF clause."""

    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    def test_one_clause_and_no_variable_over_blasted_bits(self, opt_level):
        lits = _bit_literals(f"ac_shape{opt_level}")
        ctx = SolverContext(opt_level=opt_level)
        ctx.encode(lits)  # blast every bit up front
        vars_before, clauses_before = ctx.num_vars, ctx.num_clauses
        ctx.add_clause(lits)
        assert ctx.num_vars == vars_before
        assert ctx.num_clauses == clauses_before + 1
        # The same disjunction through add() builds gates for the OR-tree.
        ctx.add(T.bv_or_all(lits))
        assert ctx.num_vars > vars_before
        result = ctx.check()
        assert result.satisfiable is True
        assert evaluate(T.bv_or_all(lits), result.model) == 1

    def test_pop_retires_the_clause(self):
        x = T.bv_var("ac_scope_x", 4)
        lits = [T.bv_eq(x, T.bv_const(3, 4)), T.bv_eq(x, T.bv_const(5, 4))]
        ctx = SolverContext()
        ctx.add(T.bv_ult(x, T.bv_const(3, 4)))
        ctx.push()
        ctx.add_clause(lits)
        assert ctx.assertions[-1].tid == T.bv_or_all(lits).tid
        assert ctx.check().satisfiable is False
        ctx.pop()
        assert ctx.scope_depth == 0
        assert ctx.check().satisfiable is True

    def test_constant_true_literal_adds_nothing(self):
        lits = _bit_literals("ac_true")
        ctx = SolverContext()
        ctx.encode(lits)
        before = (ctx.num_vars, ctx.num_clauses)
        ctx.add_clause([*lits, T.bv_true()])
        assert (ctx.num_vars, ctx.num_clauses) == before
        assert ctx.check().satisfiable is True

    def test_all_false_literals_at_root_are_unsat_with_empty_core(self):
        x = T.bv_var("ac_false_x", 4)
        for literals in ([T.bv_false(), T.bv_false()], []):
            ctx = SolverContext()
            ctx.add_clause(literals)
            result = ctx.check(assumptions=[T.bv_eq(x, T.bv_const(1, 4))])
            assert result.satisfiable is False
            assert result.core == []

    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    @settings(max_examples=25, deadline=None)
    @given(ops=_clause_ops)
    def test_matches_add_of_the_disjunction(self, opt_level, ops):
        flat = SolverContext(opt_level=opt_level)
        tree = SolverContext(opt_level=opt_level)
        for op in (*ops, ("check", [])):
            if op[0] == "push":
                flat.push()
                tree.push()
            elif op[0] == "pop":
                if flat.scope_depth:
                    flat.pop()
                    tree.pop()
            elif op[0] == "clause":
                lits = [_CLAUSE_POOL[i] for i in op[1]]
                flat.add_clause(lits)
                tree.add(T.bv_or_all(lits))
            else:
                assumptions = [_CLAUSE_POOL[i] for i in op[1]]
                verdicts = []
                for ctx in (flat, tree):
                    result = ctx.check(assumptions=assumptions)
                    verdicts.append(result.satisfiable)
                    if result.satisfiable:
                        model = {
                            name: result.model.get(name, 0)
                            for name in (_CX.name, _CY.name)
                        }
                        for term in (*ctx.assertions, *assumptions):
                            assert evaluate(term, model) == 1
                    else:
                        core = result.core
                        assert core is not None
                        assert {t.tid for t in core} <= {t.tid for t in assumptions}
                        assert ctx.check(assumptions=core).satisfiable is False
                assert verdicts[0] == verdicts[1]
                assert [t.tid for t in flat.assertions] == [
                    t.tid for t in tree.assertions
                ]


values = st.integers(min_value=0, max_value=mask(W))


class TestConstantTrueAssertion:
    """A non-constant term that lowers to TRUE adds no clause."""

    def test_one_constant_unit_at_root_and_in_a_scope(self):
        ctx = SolverContext(opt_level=2)
        x = T.bv_var("ctrue_x", 4)
        always = T.bv_ule(T.bv_const(0, 4), x)
        assert not always.is_const
        clauses = ctx.blaster.cnf.clauses
        unit = (ctx.blaster._const_var,)
        ctx.add(always)
        assert [tuple(c) for c in clauses].count(unit) == 1
        ctx.push()
        before = len(clauses)
        ctx.add(always)
        assert len(clauses) == before
        assert [tuple(c) for c in clauses].count(unit) == 1
        assert ctx.assertions == [always, always]
        assert ctx.check().satisfiable is True


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
            oneshot = _oneshot([base, extra])
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
            oneshot = _oneshot([base, assumption])
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

    def test_synthesized_program_is_equivalent(self, spec_and_components):
        spec, components = spec_and_components
        outcome = CegisEngine().synthesize(spec, components)
        assert outcome.succeeded
        assert verify_equivalence(outcome.program)

    def test_solver_stats_per_phase(self, spec_and_components):
        spec, components = spec_and_components
        outcome = CegisEngine().synthesize(spec, components)
        assert outcome.succeeded
        stats = outcome.stats
        assert stats.synthesis_solver_stats.decisions > 0
        assert stats.verification_solver_stats.propagations > 0


class TestKernelSelection:
    """``$REPRO_SAT_BACKEND`` is the one kernel selector, read per context."""

    @pytest.mark.parametrize("value", [None, ""])
    def test_unset_or_empty_selects_the_arena(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("REPRO_SAT_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_SAT_BACKEND", value)
        ctx = SolverContext()
        assert ctx.backend.kernel == "arena"
        assert isinstance(ctx.backend._solver, ArenaSolver)

    def test_reference_reaches_the_bmc_session_context(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_BACKEND", "reference")
        session = BmcSession(_counter_system("kern_ref", 5), "bounded")
        assert session.context.backend.kernel == "reference"
        assert isinstance(session.context.backend._solver, SatSolver)
        assert session.extend_to(6).holds is True

    def test_unknown_kernel_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_BACKEND", "kissat")
        with pytest.raises(SolveError, match="REPRO_SAT_BACKEND"):
            SolverContext()

    def test_context_runs_the_kernel_the_environment_names(self):
        # Each CI leg sets the variable for the whole run: a leg whose
        # value stopped reaching the kernel would re-run the arena unseen.
        expected = os.environ.get("REPRO_SAT_BACKEND") or "arena"
        assert SolverContext().backend.kernel == expected


class TestFacade:
    def test_repeated_check_reuses_the_encoding(self):
        solver = SolverContext()
        x, y = _vars("fac")
        solver.add(T.bv_ult(x, y))
        first = solver.check()
        clauses_after_first = solver.num_clauses
        second = solver.check()
        assert first.satisfiable and second.satisfiable
        # No re-blasting: the clause count is unchanged between checks.
        assert solver.num_clauses == clauses_after_first

    def test_free_variable_cache_covers_model(self):
        solver = SolverContext()
        x, y = _vars("cache")
        solver.add(T.bv_eq(x, T.bv_const(3, W)))
        solver.add(T.bv_eq(y, T.bv_const(4, W)))
        result = solver.check()
        assert result.model == {x.name: 3, y.name: 4}
        assert result.value_of(T.bv_add(x, y)) == 7

    def test_result_stats_are_per_query(self):
        solver = SolverContext()
        x, y = _vars("pq")
        solver.add(T.bv_eq(T.bv_mul(x, y), T.bv_const(12, W)))
        first = solver.check(assumptions=[T.bv_ult(x, y)])
        second = solver.check(assumptions=[T.bv_ult(y, x)])
        assert first.satisfiable and second.satisfiable
        total = solver.stats
        assert total.propagations >= (
            first.stats.propagations + second.stats.propagations
        )

"""Tests for the CNF container and both CDCL SAT solver kernels.

Every solver-contract test runs against the plain-MiniSat reference
:class:`SatSolver` *and* the flat clause-arena :class:`ArenaSolver` — the
two must be behaviourally indistinguishable (verdicts, cores, budget and
reuse semantics), which the differential fuzz suite at the bottom checks
head-to-head on randomized instances.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SatError
from repro.sat.arena import ArenaSolver
from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver

#: Both kernels must pass every contract test.
KERNELS = [SatSolver, ArenaSolver]
KERNEL_IDS = ["reference", "arena"]

pytestmark_kernels = pytest.mark.parametrize("solver_cls", KERNELS, ids=KERNEL_IDS)


class TestCnf:
    def test_add_clause_tracks_variables(self):
        cnf = CNF()
        cnf.add_clause([1, -3])
        assert cnf.num_vars == 3
        assert len(cnf) == 1

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(SatError):
            cnf.add_clause([1, 0])

    def test_new_var(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2

    def test_copy_is_independent(self):
        cnf = CNF([[1, 2]])
        dup = cnf.copy()
        dup.add_clause([3])
        assert len(cnf) == 1
        assert len(dup) == 2


@pytestmark_kernels
class TestSolverBasics:
    def test_empty_formula_is_sat(self, solver_cls):
        assert solver_cls().solve().satisfiable is True

    def test_unit_clauses(self, solver_cls):
        solver = solver_cls()
        solver.add_clause([1])
        solver.add_clause([-2])
        result = solver.solve()
        assert result.satisfiable
        assert result.value(1) is True
        assert result.value(2) is False

    def test_trivial_unsat(self, solver_cls):
        solver = solver_cls()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve().satisfiable is False

    def test_simple_implication_chain(self, solver_cls):
        solver = solver_cls()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        solver.add_clause([1])
        result = solver.solve()
        assert result.satisfiable
        assert result.value(3) is True

    def test_model_satisfies_all_clauses(self, solver_cls):
        # A satisfiable random 3-SAT instance: 60 variables at clause ratio
        # 3.5, below the phase transition.
        rng = random.Random(42)
        random_3sat = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 61), 3)]
            for _ in range(210)
        ]
        for clauses in ([[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]], random_3sat):
            result = solver_cls(CNF(clauses)).solve()
            assert result.satisfiable
            for clause in clauses:
                assert any(result.value(abs(l)) == (l > 0) for l in clause)

    def test_pigeonhole_3_into_2_unsat(self, solver_cls):
        assert solver_cls(CNF(_pigeonhole_clauses(3, 2))).solve().satisfiable is False

    def test_assumptions_sat_and_unsat(self, solver_cls):
        solver = solver_cls()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]).satisfiable is True
        assert solver.solve(assumptions=[-1, -2]).satisfiable is False
        # The solver is reusable after assumption-based calls.
        assert solver.solve().satisfiable is True

    def test_conflict_budget_returns_unknown(self, solver_cls):
        # A hard pigeonhole instance with a tiny budget must return None.
        result = solver_cls(CNF(_pigeonhole_clauses(6, 5))).solve(conflict_budget=5)
        assert result.satisfiable is None

    def test_duplicate_literals_and_tautologies(self, solver_cls):
        solver = solver_cls()
        solver.add_clause([1, 1, 2])
        solver.add_clause([3, -3])  # tautology, silently dropped
        assert solver.solve().satisfiable is True

    def test_conflict_budget_is_per_call(self, solver_cls):
        # Regression: the budget used to be compared against the lifetime
        # conflict counter, so on a reused instance a later budgeted call
        # started with its budget already (partially) spent.
        solver = solver_cls(CNF(_pigeonhole_clauses(5, 4)))
        first = solver.solve(conflict_budget=5)
        assert first.satisfiable is None
        assert solver.stats.conflicts == 5
        second = solver.solve(conflict_budget=5)
        assert second.satisfiable is None
        # Both calls did real work: the budget was not pre-exhausted.
        assert solver.stats.conflicts == 10
        # And without a budget the instance still decides the query.
        assert solver.solve().satisfiable is False

    def test_result_stats_are_detached_snapshots(self, solver_cls):
        # Regression: solve() used to hand out the live ``self.stats``
        # object, so a stored result's counters silently mutated on later
        # calls against the same instance.
        solver = solver_cls(CNF(_pigeonhole_clauses(5, 4)))
        first = solver.solve(conflict_budget=5)
        snapshot = first.stats.conflicts
        assert snapshot == 5
        solver.solve()  # burns many more conflicts on the same instance
        assert solver.stats.conflicts > snapshot
        assert first.stats.conflicts == snapshot

    def test_need_model_false_returns_no_model(self, solver_cls):
        solver = solver_cls()
        solver.add_clause([1, 2])
        result = solver.solve(need_model=False)
        assert result.satisfiable is True
        assert result.model == {}
        # A typed error naming the variable, never a bare KeyError.
        with pytest.raises(SatError, match="variable 1.*need_model=False"):
            result.value(1)

    def test_value_outside_the_model_is_a_typed_error(self, solver_cls):
        solver = solver_cls()
        solver.add_clause([1, 2])
        result = solver.solve()
        assert result.satisfiable is True
        with pytest.raises(SatError, match="variable 9 is not in the model"):
            result.value(9)


def _pigeonhole_clauses(pigeons: int, holes: int) -> list[list[int]]:
    def var(p, h):
        return 1 + p * holes + h

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                clauses.append([-var(i, h), -var(j, h)])
    return clauses


@pytestmark_kernels
class TestFailedAssumptionCores:
    def test_core_is_subset_and_still_unsat(self, solver_cls):
        solver = solver_cls()
        solver.add_clause([-1, 3])
        solver.add_clause([-2, 4])
        result = solver.solve(assumptions=[1, 2, -3])
        assert result.satisfiable is False
        assert result.core is not None and result.core
        assert set(result.core) <= {1, 2, -3}
        # The irrelevant assumption never belongs to the core.
        assert 2 not in result.core
        # Re-solving under only the core stays UNSAT.
        assert solver.solve(assumptions=result.core).satisfiable is False

    def test_core_on_nontrivial_search(self, solver_cls):
        solver = solver_cls(CNF(_pigeonhole_clauses(3, 3)))
        assert solver.solve().satisfiable is True
        result = solver.solve(assumptions=[2, 5])  # pigeon 0 and 1 in hole 1
        assert result.satisfiable is False
        assert result.core and set(result.core) <= {2, 5}
        assert solver.solve(assumptions=result.core).satisfiable is False
        # The instance stays healthy for later queries.
        assert solver.solve().satisfiable is True

    def test_empty_core_iff_root_unsat(self, solver_cls):
        solver = solver_cls()
        solver.add_clause([1])
        solver.add_clause([-1])
        result = solver.solve(assumptions=[2])
        assert result.satisfiable is False
        assert result.core == []

    def test_contradictory_assumptions(self, solver_cls):
        solver = solver_cls()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[3, -3])
        assert result.satisfiable is False
        assert set(result.core) == {3, -3}

    def test_assumption_unsat_does_not_poison(self, solver_cls):
        solver = solver_cls()
        solver.add_clause([1, 2])
        solver.add_clause([-3, -1])
        assert solver.solve(assumptions=[3, 1]).satisfiable is False
        # The same instance keeps answering (this used to require nothing —
        # but a root-level conflict must still latch, see below).
        assert solver.solve(assumptions=[3]).satisfiable is True
        assert solver.solve().satisfiable is True

    def test_in_search_root_conflict_latches_unsat(self, solver_cls):
        # UNSAT discovered *during* search (not by pre-search propagation)
        # must poison the instance: every later call answers False with an
        # empty core without re-searching.
        solver = solver_cls(CNF(_pigeonhole_clauses(4, 3)))
        result = solver.solve()
        assert result.satisfiable is False
        assert result.core == []
        assert solver.stats.conflicts > 0
        conflicts_before = solver.stats.conflicts
        again = solver.solve(assumptions=[1])
        assert again.satisfiable is False
        assert again.core == []
        assert solver.stats.conflicts == conflicts_before  # no re-search

    def test_assumptions_reserve_variables(self, solver_cls):
        # Assuming a literal over a never-seen variable must not crash.
        solver = solver_cls()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[7])
        assert result.satisfiable is True
        assert result.value(7) is True

    @pytest.mark.parametrize("seed", range(8))
    def test_random_cores_shrink_and_hold(self, solver_cls, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 9)
        clauses = _random_cnf(rng, num_vars, rng.randint(5, 30))
        solver = solver_cls(CNF(clauses, num_vars=num_vars))
        assumptions = []
        for v in range(1, num_vars + 1):
            if rng.random() < 0.6:
                assumptions.append(v if rng.random() < 0.5 else -v)
        result = solver.solve(assumptions=assumptions)
        if result.satisfiable is not False:
            return
        assert result.core is not None
        assert set(result.core) <= set(assumptions)
        # The core alone must keep the instance UNSAT...
        assert solver.solve(assumptions=result.core).satisfiable is False
        # ...and an empty core must mean root UNSAT.
        if not result.core:
            assert solver.solve().satisfiable is False


def _random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> list[list[int]]:
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        clause = []
        for _ in range(width):
            var = rng.randint(1, num_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        clauses.append(clause)
    return clauses


def _brute_force_sat(clauses: list[list[int]], num_vars: int) -> bool:
    for assignment in range(1 << num_vars):
        values = {v: bool((assignment >> (v - 1)) & 1) for v in range(1, num_vars + 1)}
        if all(any(values[abs(l)] == (l > 0) for l in clause) for clause in clauses):
            return True
    return False


def _model_satisfies(result, clauses: list[list[int]]) -> bool:
    return all(
        any(result.value(abs(l)) == (l > 0) for l in clause) for clause in clauses
    )


@pytestmark_kernels
class TestSolverAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_small_instances(self, solver_cls, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 8)
        clauses = _random_cnf(rng, num_vars, rng.randint(3, 25))
        expected = _brute_force_sat(clauses, num_vars)
        result = solver_cls(CNF(clauses, num_vars=num_vars)).solve()
        assert result.satisfiable is expected
        if expected:
            assert _model_satisfies(result, clauses)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_instances_hypothesis(self, solver_cls, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(2, 7)
        clauses = _random_cnf(rng, num_vars, rng.randint(2, 20))
        expected = _brute_force_sat(clauses, num_vars)
        result = solver_cls(CNF(clauses, num_vars=num_vars)).solve()
        assert bool(result) is expected


def _record_decisions(solver: ArenaSolver) -> list[int]:
    """Wrap the arena's decision heuristic; returns the live list of decisions."""
    decided: list[int] = []
    decide = solver._decide

    def recording() -> int:
        var = decide()
        if var:
            decided.append(var)
        return var

    solver._decide = recording
    return decided


class TestArenaDecisionVariables:
    """The arena decides only variables that occur in a problem clause.

    Reserved, eliminated and never-used variables stay out of the order
    heap, so a SAT answer costs decisions on the clause variables only.
    """

    def test_reserved_variables_are_never_decided(self):
        solver = ArenaSolver()
        solver.reserve(1000)
        clauses = [[1, 2], [-1, 2]]
        for clause in clauses:
            solver.add_clause(clause)
        decided = _record_decisions(solver)
        result = solver.solve()
        assert result.satisfiable is True
        assert result.stats.decisions <= 2
        assert set(decided) <= {1, 2}
        assert _model_satisfies(result, clauses)
        # Clause-free variables are unassigned and read False.
        assert result.value(1000) is False

    def test_variable_named_between_solves_is_decided(self):
        solver = ArenaSolver()
        solver.reserve(10)
        solver.add_clause([1, 2])
        decided = _record_decisions(solver)
        assert solver.solve().satisfiable is True
        assert set(decided) <= {1, 2}
        decided.clear()
        solver.add_clause([3, -4])
        result = solver.solve()
        assert result.satisfiable is True
        assert decided and set(decided) & {3, 4}
        assert set(decided) <= {1, 2, 3, 4}
        assert _model_satisfies(result, [[1, 2], [3, -4]])

    def test_assumed_clause_free_variable_keeps_its_value(self):
        solver = ArenaSolver()
        solver.add_clause([1, 2])
        solver.reserve(7)
        decided = _record_decisions(solver)
        for lit in (7, -7):
            result = solver.solve(assumptions=[lit])
            assert result.satisfiable is True
            assert result.value(7) is (lit > 0)
        # Backtracking hands the assumed variable back to the order heap;
        # a later solve without the assumption must still not decide it.
        result = solver.solve()
        assert result.satisfiable is True
        assert 7 not in decided
        assert result.value(7) is False


def test_arena_counts_lbd_and_minimised_literals():
    # The arena books the LBD mass of every stored learned clause and the
    # literals recursive minimisation removes.  The exact figures pin the
    # arena's search on this instance.
    solver = ArenaSolver(CNF(_pigeonhole_clauses(5, 4)))
    assert solver.solve().satisfiable is False
    assert solver.stats.lbd_sum == 63
    assert solver.stats.minimized_literals == 11


class TestDifferentialFuzz:
    """Arena vs reference, head-to-head on randomized incremental workloads.

    Search paths legitimately diverge between the kernels (the arena's
    LBD tiers, recursive minimisation and target phases against the
    reference's plain MiniSat), so the comparison is semantic, never
    trace-level: identical verdicts on decided queries, model validity on
    SAT, core validity (subset + still-UNSAT, checked on *both* kernels) on
    UNSAT, and continued agreement after an assumption-UNSAT answer on the
    same instances.
    """

    @pytest.mark.parametrize("seed", range(25))
    def test_incremental_assumption_queries_agree(self, seed):
        rng = random.Random(0xA5A5 + seed)
        num_vars = rng.randint(5, 12)
        reference = SatSolver()
        arena = ArenaSolver()
        reference.reserve(num_vars)
        arena.reserve(num_vars)
        clauses: list[list[int]] = []
        for round_no in range(4):
            # Grow both instances with the same fresh random clauses.
            for clause in _random_cnf(rng, num_vars, rng.randint(3, 12)):
                clauses.append(clause)
                reference.add_clause(clause)
                arena.add_clause(clause)
            assumptions = []
            for v in range(1, num_vars + 1):
                if rng.random() < 0.4:
                    assumptions.append(v if rng.random() < 0.5 else -v)
            r = reference.solve(assumptions=assumptions)
            a = arena.solve(assumptions=assumptions)
            assert r.satisfiable is a.satisfiable, (
                f"verdict divergence (round {round_no}, assumptions "
                f"{assumptions}): reference={r.satisfiable} arena={a.satisfiable}"
            )
            if a.satisfiable:
                assert _model_satisfies(a, clauses)
                assert _model_satisfies(r, clauses)
                for lit in assumptions:
                    assert a.value(abs(lit)) is (lit > 0)
            elif a.satisfiable is False:
                for result in (r, a):
                    assert result.core is not None
                    assert set(result.core) <= set(assumptions)
                # Each kernel's core must keep the *other* kernel UNSAT too.
                assert reference.solve(assumptions=a.core).satisfiable is False
                assert arena.solve(assumptions=r.core).satisfiable is False
                # Empty core <=> root UNSAT, and the kernels agree on it.
                assert (not r.core) == (not a.core)
                if not a.core:
                    assert arena.solve().satisfiable is False
                    assert reference.solve().satisfiable is False
                    return  # both latched root-UNSAT; nothing left to grow
            # Both instances must remain usable for the next round.

    @pytest.mark.parametrize("seed", range(10))
    def test_budgeted_queries_agree_when_decided(self, seed):
        # Under a conflict budget the kernels may disagree on *whether* they
        # decided (search paths diverge), but never on a decided verdict —
        # re-checked budget-free whenever one side answered None.
        rng = random.Random(0xB0B0 + seed)
        num_vars = rng.randint(8, 14)
        clauses = _random_cnf(rng, num_vars, rng.randint(30, 60))
        reference = SatSolver(CNF(clauses, num_vars=num_vars))
        arena = ArenaSolver(CNF(clauses, num_vars=num_vars))
        budget = rng.randint(1, 20)
        r = reference.solve(conflict_budget=budget)
        a = arena.solve(conflict_budget=budget)
        if r.satisfiable is not None and a.satisfiable is not None:
            assert r.satisfiable is a.satisfiable
        # An exhausted budget never corrupts state: the budget-free
        # re-query on the same instances must agree.
        assert reference.solve().satisfiable is arena.solve().satisfiable

    @pytest.mark.parametrize("seed", range(20))
    def test_sparse_variables_and_fresh_clauses_agree(self, seed):
        # Many reserved variables that no clause names, and clauses over
        # variables first named between queries: the arena never decides
        # the clause-free ones, and must still agree with the reference.
        rng = random.Random(0xC1A5 + seed)
        num_vars = rng.randint(40, 120)
        reference = SatSolver()
        arena = ArenaSolver()
        reference.reserve(num_vars)
        arena.reserve(num_vars)
        unused = list(range(1, num_vars + 1))
        rng.shuffle(unused)
        named: list[int] = []
        clauses: list[list[int]] = []
        for round_no in range(5):
            # Name a few fresh variables, then mix them with earlier ones.
            for _ in range(rng.randint(2, 5)):
                if unused:
                    named.append(unused.pop())
            for _ in range(rng.randint(2, 8)):
                clause = []
                for _ in range(rng.randint(1, 3)):
                    var = rng.choice(named)
                    clause.append(var if rng.random() < 0.5 else -var)
                clauses.append(clause)
                reference.add_clause(clause)
                arena.add_clause(clause)
            # Assume on clause variables and on clause-free ones alike.
            pool = named + unused[: len(named)]
            assumptions = [
                var if rng.random() < 0.5 else -var
                for var in rng.sample(pool, rng.randint(0, min(4, len(pool))))
            ]
            r = reference.solve(assumptions=assumptions)
            a = arena.solve(assumptions=assumptions)
            assert r.satisfiable is a.satisfiable, (
                f"verdict divergence (round {round_no}, assumptions "
                f"{assumptions}): reference={r.satisfiable} arena={a.satisfiable}"
            )
            if a.satisfiable:
                for result in (r, a):
                    assert _model_satisfies(result, clauses)
                    for lit in assumptions:
                        assert result.value(abs(lit)) is (lit > 0)
            else:
                for result in (r, a):
                    assert result.core is not None
                    assert set(result.core) <= set(assumptions)
                assert reference.solve(assumptions=a.core).satisfiable is False
                assert arena.solve(assumptions=r.core).satisfiable is False
                if not a.core:
                    assert not r.core
                    return  # both latched root-UNSAT

    @pytest.mark.parametrize("pigeons,holes", [(4, 3), (5, 4)])
    def test_pigeonhole_unsat_and_latching_agree(self, pigeons, holes):
        clauses = _pigeonhole_clauses(pigeons, holes)
        reference = SatSolver(CNF(clauses))
        arena = ArenaSolver(CNF(clauses))
        assert reference.solve().satisfiable is False
        assert arena.solve().satisfiable is False
        # Both latch root-UNSAT: immediate empty-core answers afterwards.
        for solver in (reference, arena):
            again = solver.solve(assumptions=[1])
            assert again.satisfiable is False
            assert again.core == []


class TestSanitizers:
    """The REPRO_SANITIZE invariant layer: silent when the kernels are
    healthy, loud when their data structures are corrupted.

    The fuzz tests re-run randomized incremental workloads with the
    sanitizers enabled — any false fire surfaces as SanitizerError, any
    behavioural drift as a verdict mismatch against the plain kernels.
    The injected-corruption tests then prove each sanitizer class fires:
    a check that never trips would be indistinguishable from a no-op.
    """

    @pytestmark_kernels
    @pytest.mark.parametrize("seed", range(6))
    def test_sanitized_runs_match_plain_runs(self, solver_cls, seed):
        rng = random.Random(0x5A11 + seed)
        num_vars = rng.randint(5, 10)
        plain = solver_cls(sanitize=False)
        checked = solver_cls(sanitize=True)
        plain.reserve(num_vars)
        checked.reserve(num_vars)
        clauses: list[list[int]] = []
        for _ in range(3):
            for clause in _random_cnf(rng, num_vars, rng.randint(3, 12)):
                clauses.append(clause)
                plain.add_clause(clause)
                checked.add_clause(clause)
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in range(1, num_vars + 1)
                if rng.random() < 0.4
            ]
            p = plain.solve(assumptions=assumptions)
            c = checked.solve(assumptions=assumptions)
            assert p.satisfiable is c.satisfiable
            if c.satisfiable:
                assert _model_satisfies(c, clauses)
            elif c.satisfiable is False and not c.core:
                return  # root-UNSAT latched on both

    @pytestmark_kernels
    def test_sanitized_reduction_and_restarts(self, solver_cls):
        # Force the database-reduction path (normally 2000 learned clauses
        # away) so the post-compaction checks run, with frequent restarts.
        solver = solver_cls(CNF(_pigeonhole_clauses(5, 4)), sanitize=True)
        solver._restart_interval = 2
        solver._learned_limit = 10
        assert solver.solve().satisfiable is False
        # The instance must need search: a reduction really dropped clauses.
        assert solver.num_learned < solver.stats.learned_clauses

    def test_env_variable_sets_process_default(self, monkeypatch):
        from repro.errors import SanitizerError
        from repro.sat.sanitize import default_sanitize

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert SatSolver()._sanitize is True
        assert ArenaSolver()._sanitize is True
        # An explicit argument always beats the environment.
        assert SatSolver(sanitize=False)._sanitize is False
        monkeypatch.setenv("REPRO_SANITIZE", "off")
        assert ArenaSolver()._sanitize is False
        monkeypatch.delenv("REPRO_SANITIZE")
        assert SatSolver()._sanitize is False
        monkeypatch.setenv("REPRO_SANITIZE", "maybe")
        with pytest.raises(SanitizerError, match="REPRO_SANITIZE"):
            default_sanitize()

    # ------------------------- injected corruption: reference kernel ----

    def test_reference_watch_corruption_fires(self):
        from repro.errors import SanitizerError

        solver = SatSolver(CNF([[1, 2], [-1, 2]]), sanitize=True)
        # Detach one watcher entry behind the solver's back.
        for watch_list in solver._watches:
            if watch_list:
                watch_list.pop()
                break
        with pytest.raises(SanitizerError, match=r"\[watches\]"):
            solver.solve()

    def test_reference_model_corruption_fires(self):
        from repro.errors import SanitizerError
        from repro.sat.solver import _Clause

        solver = SatSolver(CNF([[1, 2]]), sanitize=True)
        # A clause the watch machinery never sees: the final full-model
        # scan is the only check that can catch it being falsified.
        solver._clauses.append(_Clause([-1, -2]))
        with pytest.raises(SanitizerError, match=r"\[model\]"):
            solver.solve(assumptions=[1, 2])

    def test_reference_learned_corruption_fires(self):
        # A minimisation bug that drops a load-bearing literal would leave
        # the "learned" clause satisfiable under the conflicting assignment
        # — the post-analysis check must catch exactly that shape.
        from repro.errors import SanitizerError
        from repro.sat.sanitize import check_reference_learned

        solver = SatSolver(CNF([[1, 2]], num_vars=2), sanitize=True)
        solver._assign[1] = 1  # var 1 true: a clause holding +1 is satisfied
        solver._level[1] = 0
        with pytest.raises(SanitizerError, match=r"\[learned\]"):
            check_reference_learned(solver, [1, -2])
        solver._assign[1] = -1
        solver._assign[2] = 0  # unassigned literal in a "learned" clause
        with pytest.raises(SanitizerError, match=r"\[learned\]"):
            check_reference_learned(solver, [1, -2])

    def test_reference_trail_corruption_fires(self):
        from repro.errors import SanitizerError
        from repro.sat.sanitize import check_reference_trail

        solver = SatSolver(CNF([[1, 2]], num_vars=3), sanitize=True)
        solver._trail.append(3)  # variable 3 was never assigned
        with pytest.raises(SanitizerError, match=r"\[trail\]"):
            check_reference_trail(solver)

    def test_reference_reason_corruption_fires(self):
        from repro.errors import SanitizerError
        from repro.sat.sanitize import check_reference_reasons
        from repro.sat.solver import _Clause

        solver = SatSolver(CNF([[1, 2]]), sanitize=True)
        solver._assign[1] = 1
        solver._trail.append(1)
        solver._reason[1] = _Clause([2, 1])  # implied literal not first
        with pytest.raises(SanitizerError, match=r"\[reasons\]"):
            check_reference_reasons(solver)

    # ----------------------------- injected corruption: arena kernel ----

    def test_arena_watch_corruption_fires(self):
        from repro.errors import SanitizerError

        solver = ArenaSolver(CNF([[1, 2], [-1, 2]]), sanitize=True)
        for watch_list in solver._watches:
            if watch_list:
                del watch_list[-2:]  # drop one [blocker, ref] pair
                break
        with pytest.raises(SanitizerError, match=r"\[watches\]"):
            solver.solve()

    def test_arena_record_corruption_fires(self):
        from repro.errors import SanitizerError
        from repro.sat.sanitize import check_arena_integrity

        solver = ArenaSolver(CNF([[1, 2], [-1, 2]]), sanitize=True)
        ref = solver._clause_refs[0]
        solver._arena[ref - 2] = 1  # size header below the 2-literal floor
        with pytest.raises(SanitizerError, match=r"\[arena\]"):
            check_arena_integrity(solver)

    def test_arena_model_corruption_fires(self):
        from repro.errors import SanitizerError
        from repro.sat.sanitize import check_arena_model

        solver = ArenaSolver(CNF([[1, 2]]), sanitize=True)
        # Hand-falsify the only clause: var1 = var2 = false.
        solver._values[2], solver._values[3] = -1, 1
        solver._values[4], solver._values[5] = -1, 1
        with pytest.raises(SanitizerError, match=r"\[model\]"):
            check_arena_model(solver)

    def test_arena_unassigned_decision_variable_fires(self):
        from repro.errors import SanitizerError
        from repro.sat.sanitize import check_arena_model

        solver = ArenaSolver(CNF([[1, 2]], num_vars=3), sanitize=True)
        # var1 true, var2 false: the clause holds; var 3 occurs in no
        # clause and may stay unassigned.
        solver._values[2], solver._values[3] = 1, -1
        solver._values[4], solver._values[5] = -1, 1
        check_arena_model(solver)
        # Flag var 3 as a decision variable behind the solver's back: a
        # SAT answer must not leave it unassigned.
        solver._decision[3] = 1
        with pytest.raises(SanitizerError, match=r"\[model\].*variable 3"):
            check_arena_model(solver)
        # A clause variable left unassigned fires even when another
        # literal satisfies the clause.
        solver._decision[3] = 0
        solver._values[4] = solver._values[5] = 0
        with pytest.raises(SanitizerError, match=r"\[model\].*variable 2"):
            check_arena_model(solver)

    def test_arena_learned_corruption_fires(self):
        from repro.errors import SanitizerError
        from repro.sat.sanitize import check_arena_learned

        solver = ArenaSolver(CNF([[1, 2]], num_vars=2), sanitize=True)
        # Encoded literal 2 (= +var1) true: the clause is not conflicting.
        solver._values[2], solver._values[3] = 1, -1
        solver._level[1] = 0
        with pytest.raises(SanitizerError, match=r"\[learned\]"):
            check_arena_learned(solver, [2, 5])

    def test_arena_trail_corruption_fires(self):
        from repro.errors import SanitizerError
        from repro.sat.sanitize import check_arena_trail

        solver = ArenaSolver(CNF([[1, 2]], num_vars=2), sanitize=True)
        solver._trail.append(2 * 2)  # encoded var-2 literal, never assigned
        with pytest.raises(SanitizerError, match=r"\[trail\]"):
            check_arena_trail(solver)

    def test_arena_reason_corruption_fires(self):
        from repro.errors import SanitizerError
        from repro.sat.sanitize import check_arena_reasons

        solver = ArenaSolver(CNF([[1, 2], [-1, 2]]), sanitize=True)
        assert solver.solve().satisfiable is True
        # Point var 1's reason at a clause that does not imply it.
        solver._values[2], solver._values[3] = 1, -1
        solver._trail[:] = [2]
        solver._reason[1] = solver._clause_refs[1]
        with pytest.raises(SanitizerError, match=r"\[reasons\]"):
            check_arena_reasons(solver)

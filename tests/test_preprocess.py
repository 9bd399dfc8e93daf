"""Tests for the incremental CNF preprocessor."""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional

import pytest

from repro.sat.preprocess import (
    _ELIM_OCCURRENCE_LIMIT,
    _ELIM_RESOLVENT_LEN_LIMIT,
    Preprocessor,
)
from repro.sat.solver import SatSolver


def _brute_force_sat(clauses, num_vars):
    for assignment in range(1 << num_vars):
        values = {v: bool((assignment >> (v - 1)) & 1) for v in range(1, num_vars + 1)}
        if all(any(values[abs(l)] == (l > 0) for l in clause) for clause in clauses):
            return True
    return False


def _solve(clauses, assumptions=()):
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve(assumptions=assumptions)


def _assert_equisatisfiable(clauses, out, frozen):
    """``out`` and ``clauses`` agree under every assignment of ``frozen``."""
    for bits in range(1 << len(frozen)):
        assumptions = [var if (bits >> i) & 1 else -var for i, var in enumerate(frozen)]
        expected = _solve(clauses, assumptions).satisfiable
        assert _solve(out, assumptions).satisfiable is expected


class TestUnitPropagation:
    def test_units_simplify_and_are_reemitted(self):
        pre = Preprocessor()
        out = pre.flush([[1], [-1, 2], [1, 3, 4]])
        # [1] asserted, [-1,2] strengthens to [2], [1,3,4] satisfied.
        assert out == [(1,), (2,)]
        assert list(pre._value) == [1, 2]

    def test_units_persist_across_batches(self):
        pre = Preprocessor()
        pre.flush([[5]])
        out = pre.flush([[-5, 6], [5, 7]])
        assert out == [(6,)]

    def test_conflicting_units_set_unsat(self):
        pre = Preprocessor()
        pre.flush([[1]])
        pre.flush([[-1]])
        assert pre.unsat is True

    def test_empty_clause_from_propagation_sets_unsat(self):
        pre = Preprocessor()
        pre.flush([[1], [2]])
        pre.flush([[-1, -2]])
        assert pre.unsat is True


class TestVariableElimination:
    def test_pure_auxiliary_gate_vanishes(self):
        # Tseitin AND gate 3 <-> 1&2 with no other use of 3: resolvents are
        # all tautologies, the variable disappears entirely.
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        out = pre.flush([[-3, 1], [-3, 2], [3, -1, -2]])
        assert out == []
        assert pre.is_eliminated(3)
        assert pre.stats.vars_eliminated == 1

    def test_frozen_vars_survive(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2, 3])
        out = pre.flush([[-3, 1], [-3, 2], [3, -1, -2]])
        assert len(out) == 3
        assert not pre.is_eliminated(3)

    def test_elimination_preserves_satisfiability(self):
        rng = random.Random(7)
        for _ in range(40):
            num_vars = rng.randint(3, 7)
            clauses = []
            for _ in range(rng.randint(3, 18)):
                width = rng.randint(1, 3)
                clause = list(
                    {rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(width)}
                )
                if any(-l in clause for l in clause):
                    continue
                clauses.append(clause)
            expected = _brute_force_sat(clauses, num_vars)
            pre = Preprocessor()
            out = pre.flush(clauses)
            if pre.unsat:
                assert expected is False
                continue
            result = _solve(out)
            assert result.satisfiable is expected

    def test_model_extension_through_eliminated_vars(self):
        # Eliminate gate var 3 (out of 3 <-> 1&2), solve the remainder, then
        # extend the model: var 3 must read as value(1) & value(2).
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        out = pre.flush([[-3, 1], [-3, 2], [3, -1, -2], [1], [2]])
        result = _solve(out)
        assert result.satisfiable
        model = pre.extend_model(result.model)
        assert model[1] is True and model[2] is True
        assert model[3] is True

    def test_model_extension_negative_case(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        out = pre.flush([[-3, 1], [-3, 2], [3, -1, -2], [-1], [2]])
        result = _solve(out)
        model = pre.extend_model(result.model)
        assert model[3] is False

    def test_uneliminate_on_later_reference(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        pre.flush([[-3, 1], [-3, 2], [3, -1, -2]])
        assert pre.is_eliminated(3)
        # A later batch references var 3: its definition must come back.
        out = pre.flush([[3, 4], [-4]])
        assert not pre.is_eliminated(3)
        assert pre.stats.vars_restored == 1
        # Solving everything emitted so far with 1,2 true forces 3 true.
        all_clauses = [c for c in out]
        result = _solve(all_clauses, assumptions=[1, 2])
        assert result.satisfiable
        assert result.model[3] is True

    def test_tautology_holding_both_literals_keeps_its_variable(self):
        # Resolving on 1 against (1, -1) would leave 1 in the resolvents.
        pre = Preprocessor()
        assert pre.flush([(1, -1), (1, 2)]) == [(1, -1)]
        assert not pre.is_eliminated(1)
        assert pre._eliminated == {2: [(1, 2)]}

    def test_require_vars_restores_assumption_var(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        pre.flush([[-3, 1], [-3, 2], [3, -1, -2]])
        restored = pre.require_vars([3])
        assert not pre.is_eliminated(3)
        assert restored, "the stored definition clauses must be re-emitted"
        # With the definition back, assuming 3 while 1 is false is UNSAT.
        result = _solve(restored, assumptions=[3, -1])
        assert result.satisfiable is False


class TestEquivalenceRandomised:
    """Preprocessed output is equisatisfiable and respects assumptions on frozen vars."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_with_frozen_assumption_vars(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 8)
        clauses = []
        for _ in range(rng.randint(4, 22)):
            width = rng.randint(1, 3)
            lits = {rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(width)}
            if any(-l in lits for l in lits):
                continue
            clauses.append(sorted(lits))
        frozen = [v for v in range(1, num_vars + 1) if rng.random() < 0.5]
        pre = Preprocessor()
        pre.freeze_all(frozen)
        out = pre.flush(clauses)
        for assumption_bits in range(1 << len(frozen)):
            assumptions = [
                v if (assumption_bits >> i) & 1 else -v
                for i, v in enumerate(frozen)
            ]
            expected = _solve(clauses, assumptions=assumptions).satisfiable
            if pre.unsat:
                got = False
            else:
                got = _solve(out, assumptions=assumptions).satisfiable
            assert got is expected


class TestShortcutsKeepOutput:
    """Exact outputs of one flush.

    Propagation takes a shortcut: it revisits only the clauses of newly
    valued variables, and its output is that of full passes repeated until
    one finds no new unit.  Every expected output is also checked against
    its input under every assignment of the frozen variables.
    """

    def test_backwards_unit_chain_takes_several_passes(self):
        pre = Preprocessor()
        frozen = [6, 7, 8, 9]
        pre.freeze_all(frozen)
        clauses = [
            (-4, 5), (6, 7), (-3, 4), (-5, 6, 8), (-2, 3), (7, 8, 9), (-1, 2), (5, 9, -7), (1,)
        ]
        out = pre.flush(clauses)
        # Units in discovery order, then the survivors in input order.
        assert out == [(1,), (2,), (3,), (4,), (5,), (6, 7), (6, 8), (7, 8, 9)]
        assert list(pre._value) == [1, 2, 3, 4, 5]
        # (5, 9, -7) is satisfied and dropped; (-5, 6, 8) comes out
        # stripped to (6, 8), and each chain clause became a unit.
        _assert_equisatisfiable(clauses, out, frozen)

    def test_unit_resolvent_is_propagated_in_the_same_flush(self):
        pre = Preprocessor()
        frozen = [2, 3, 4, 5]
        pre.freeze_all(frozen)
        clauses = [(1, 2), (-1, 2), (-2, 3, 4), (3, 4, 5)]
        out = pre.flush(clauses)
        # Eliminating 1 leaves the unit resolvent (2), which the flush
        # propagates before it returns: (-2, 3, 4) is stripped to (3, 4).
        assert out == [(2,), (3, 4), (3, 4, 5)]
        assert pre._eliminated == {1: [(1, 2), (-1, 2)]}
        assert list(pre._value) == [2]
        _assert_equisatisfiable(clauses, out, frozen)

    def test_one_elimination_pass_per_flush(self):
        pre = Preprocessor()
        frozen = [1, 2, 5]
        pre.freeze_all(frozen)
        clauses = [(-1, -3, -4), (-1, 4), (2, 3), (-3, -5), (2, 4), (3, -5)]
        out = pre.flush(clauses)
        # Variable 4 has the fewest occurrences; eliminating it leaves
        # (-1, -3) and (2, -1, -3).  Variable 3 then has five clauses and six
        # resolvents, so it stays: nothing removes the subsumed (2, -1, -3),
        # and no second pass tries 3 again.
        assert out == [(2, 3), (-3, -5), (3, -5), (-1, -3), (2, -1, -3)]
        assert pre._eliminated == {4: [(-1, 4), (2, 4), (-1, -3, -4)]}
        assert pre._value == {}
        assert pre.stats.vars_eliminated == 1
        _assert_equisatisfiable(clauses, out, frozen)

    def test_same_tuple_object_twice_in_a_batch(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        gate = (-3, 1)
        clauses = [gate, (-3, 2), gate, (3, -1, -2), (4, 3), (-4, 1, 2)]
        out = pre.flush(clauses)
        # Both copies of the gate clause resolve with (3, 1, 2), the
        # resolvent of 4, so (1, 2) comes out once per copy of the clause.
        assert out == [(1, 2), (1, 2), (1, 2)]
        assert pre._eliminated == {
            4: [(4, 3), (-4, 1, 2)],
            3: [(3, -1, -2), (3, 1, 2), (-3, 1), (-3, 2), (-3, 1)],
        }
        _assert_equisatisfiable(clauses, out, [1, 2])

        pre = Preprocessor()
        pre.freeze_all([1, 2, 5])
        wide = tuple(range(1, 18))
        clauses = [(5, 6), wide, (-6, 1), wide, (-6, 2)]
        out = pre.flush(clauses)
        assert out == [(5, 1), (5, 2)]
        assert pre._eliminated == {3: [wide, wide], 6: [(5, 6), (-6, 1), (-6, 2)]}
        _assert_equisatisfiable(clauses, out, [1, 2, 5])


class TestMultiBatchStream:
    """One preprocessor over many flushes, checked after every batch."""

    @pytest.mark.parametrize("seed", range(6))
    def test_stream_stays_equisatisfiable_and_models_extend(self, seed):
        rng = random.Random(seed)
        num_vars = 30
        # Assumption candidates: three frozen up front, the rest required
        # (and so restored if eliminated) along the way.
        pool = rng.sample(range(1, num_vars + 1), 6)
        frozen = pool[:3]
        pre = Preprocessor()
        pre.freeze_all(frozen)
        inputs: list[tuple[int, ...]] = []
        emitted: list[tuple[int, ...]] = []
        gates = 0

        def random_batch():
            batch = []
            for _ in range(rng.randint(3, 9)):
                width = 1 if rng.random() < 0.05 else rng.randint(2, 3)
                lits = {rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(width)}
                if not any(-lit in lits for lit in lits):
                    batch.append(tuple(lits))
            return batch

        for step in range(10):
            roll = rng.random()
            if step and roll < 0.3:
                required = rng.sample(pool, 2)
                frozen += [var for var in required if var not in frozen]
                emitted += pre.require_vars(required)
            elif roll < 0.55 and gates < 2:
                # A query's assumption literal: a fresh AND gate over two
                # stream literals, frozen before the flush that introduces
                # it, as SolverContext.check does.  That flush must not
                # eliminate it, so require_vars has nothing to restore.
                gates += 1
                gate = num_vars + gates
                a, b = (
                    rng.choice([-1, 1]) * var for var in rng.sample(range(1, num_vars + 1), 2)
                )
                batch = random_batch() + [(-gate, a), (-gate, b), (gate, -a, -b)]
                pre.freeze(gate)
                inputs += batch
                emitted += pre.flush(batch)
                assert not pre.is_eliminated(gate)
                assert pre.require_vars([gate]) == []
                frozen.append(gate)
            else:
                batch = random_batch()
                inputs += batch
                emitted += pre.flush(batch)
            if pre.unsat:
                assert not _solve(inputs).satisfiable
                return
            _assert_equisatisfiable(inputs, emitted, frozen)
            result = _solve(emitted)
            if result.satisfiable:
                model = pre.extend_model(result.model)
                for clause in inputs:
                    assert any(model.get(abs(lit), False) == (lit > 0) for lit in clause)


class _PairwiseReference(Preprocessor):
    """Elimination that builds resolvents pair by pair, as it did before it
    counted them first: it gives up at the first resolvent over the length
    limit or past the budget.  ``seen`` counts which cases a batch reached.
    """

    def __init__(self):
        super().__init__()
        self.seen: Counter = Counter()

    def _eliminate(self, pending):
        occur: dict[int, set[int]] = {}
        clauses: dict[int, tuple[int, ...]] = dict(enumerate(pending))
        for pid, clause in clauses.items():
            for lit in clause:
                occur.setdefault(lit, set()).add(pid)
        next_pid = len(pending)
        candidates = sorted(
            {abs(lit) for lit in occur},
            key=lambda v: len(occur.get(v, ())) + len(occur.get(-v, ())),
        )
        for var in candidates:
            if var in self._frozen or var in self._emitted_vars:
                self.seen["frozen" if var in self._frozen else "emitted"] += 1
                continue
            pos = list(occur.get(var, ()))
            neg = list(occur.get(-var, ()))
            if not pos and not neg:
                continue
            if len(pos) > _ELIM_OCCURRENCE_LIMIT or len(neg) > _ELIM_OCCURRENCE_LIMIT:
                self.seen["occurrence limit"] += 1
                continue
            if not set(pos).isdisjoint(neg):
                self.seen["var and -var in one clause"] += 1
                continue
            pos_clauses = [clauses[pid] for pid in pos]
            neg_clauses = [clauses[pid] for pid in neg]
            resolvents = self._resolvents(var, pos_clauses, neg_clauses)
            if resolvents is None:
                continue
            self.seen["eliminated"] += 1
            for pid in pos + neg:
                for lit in clauses.pop(pid):
                    occur[lit].discard(pid)
            for resolvent in resolvents:
                clauses[next_pid] = resolvent
                for lit in resolvent:
                    occur.setdefault(lit, set()).add(next_pid)
                next_pid += 1
            self._eliminated[var] = pos_clauses + neg_clauses
            self.stats.vars_eliminated += 1
        return list(clauses.values())

    def _resolvents(self, var, pos_clauses, neg_clauses):
        budget = len(pos_clauses) + len(neg_clauses)
        resolvents = []
        pairs = len(pos_clauses) * len(neg_clauses)
        for index, (pos_clause, neg_clause) in enumerate(
            (p, n) for p in pos_clauses for n in neg_clauses
        ):
            resolvent = self._resolve(pos_clause, neg_clause, var)
            if resolvent is None:
                continue  # tautology
            if len(resolvent) > _ELIM_RESOLVENT_LEN_LIMIT:
                self.seen["resolvent over the length limit"] += 1
                return None
            resolvents.append(resolvent)
            if len(resolvents) > budget:
                self.seen["over budget"] += 1
                if index == pairs - 1:
                    self.seen["over budget on the last pair"] += 1
                return None
        return resolvents

    @staticmethod
    def _resolve(pos_clause, neg_clause, var) -> Optional[tuple[int, ...]]:
        seen: set[int] = set()
        out: list[int] = []
        for clause, skip in ((pos_clause, var), (neg_clause, -var)):
            for lit in clause:
                if lit == skip:
                    continue
                if -lit in seen:
                    return None
                if lit not in seen:
                    seen.add(lit)
                    out.append(lit)
        return tuple(out)


def _random_clause(rng, vars, width):
    return tuple(rng.choice([-1, 1]) * var for var in rng.sample(vars, width))


def _elimination_batch(rng):
    """A batch of normal clauses and the variables to freeze and mark emitted.

    Random clauses over a few variables, plus some of these shapes over
    fresh variables, each with its side variables frozen: a variable past
    the occurrence limit, a pair whose resolvent is over the length limit,
    nine pairs whose seventh non-tautological resolvent (one past the
    budget) is the last pair, and a variable beside its complement.
    """
    num_vars = rng.randint(4, 12)
    vars = list(range(1, num_vars + 1))
    batch = [
        _random_clause(rng, vars, min(num_vars, rng.choice([1, 2, 2, 3, 3, 3, 4, 6])))
        for _ in range(rng.randint(4, 30))
    ]
    frozen = {var for var in vars if rng.random() < 0.2}
    emitted = {var for var in vars if rng.random() < 0.15}
    fresh = iter(range(num_vars + 1, num_vars + 200))
    if rng.random() < 0.3:
        hub = next(fresh)
        sides = [next(fresh) for _ in range(_ELIM_OCCURRENCE_LIMIT + 1)]
        batch += [(hub, side) for side in sides] + [(-hub, rng.choice(vars))]
        frozen.update(sides)
    if rng.random() < 0.3:
        pivot = next(fresh)
        half = _ELIM_RESOLVENT_LEN_LIMIT // 2 + 1
        wide = [next(fresh) for _ in range(2 * half)]
        batch += [(pivot, *wide[:half]), (-pivot, *wide[half:])]
        frozen.update(wide)
    if rng.random() < 0.3:
        pivot = next(fresh)
        a, b, c, d = (next(fresh) for _ in range(4))
        batch += [(pivot, a), (pivot, b), (pivot, c), (-pivot, -a), (-pivot, -b), (-pivot, d)]
        frozen.update((a, b, c, d))
    if rng.random() < 0.2:
        var = rng.choice(vars)
        batch.append((var, -var))
    rng.shuffle(batch)
    return batch, frozen, emitted


class TestEliminationMatchesPairwiseReference:
    """Counting resolvents before building them changes no output."""

    def test_random_batches(self):
        reached: Counter = Counter()
        for seed in range(240):
            batch, frozen, emitted = _elimination_batch(random.Random(seed))
            pre, ref = Preprocessor(), _PairwiseReference()
            for each in (pre, ref):
                each.freeze_all(frozen)
                each._emitted_vars.update(emitted)
            assert pre._eliminate(list(batch)) == ref._eliminate(list(batch)), seed
            assert list(pre._eliminated.items()) == list(ref._eliminated.items()), seed
            assert pre.stats == ref.stats, seed
            reached.update(ref.seen)
        for case in (
            "frozen",
            "emitted",
            "occurrence limit",
            "resolvent over the length limit",
            "over budget on the last pair",
            "var and -var in one clause",
            "eliminated",
        ):
            assert reached[case], case


def _extend_with_lit_true(eliminated, model):
    """Model extension through a per-literal helper, as it was written
    before the walk tested literals inline."""
    extended = dict(model)

    def lit_true(lit):
        return extended.get(abs(lit), False) == (lit > 0)

    for var in reversed(eliminated):
        extended[var] = False
        for clause in eliminated[var]:
            if not any(lit_true(lit) for lit in clause):
                extended[var] = True
                break
    return extended


class TestExtendModel:
    @pytest.mark.parametrize("seed", range(6))
    def test_inline_walk_matches_lit_true_walk(self, seed):
        rng = random.Random(seed)
        num_vars = 24
        vars = list(range(1, num_vars + 1))
        pre = Preprocessor()
        pre.freeze_all(rng.sample(vars, 4))
        emitted: list[tuple[int, ...]] = []
        for _ in range(4):
            batch = [
                _random_clause(rng, vars, rng.choice([2, 2, 3, 3, 4]))
                for _ in range(rng.randint(6, 16))
            ]
            emitted += pre.flush(batch)
        assert pre._eliminated and not pre.unsat
        for _ in range(20):
            # Any assignment, with some variables left out of it.
            model = {var: rng.random() < 0.5 for var in vars if rng.random() < 0.8}
            assert pre.extend_model(model) == _extend_with_lit_true(pre._eliminated, model)
            # A model of the emitted clauses extends to every stored clause.
            assumptions = [var if rng.random() < 0.5 else -var for var in rng.sample(vars, 3)]
            result = _solve(emitted, assumptions)
            if not result.satisfiable:
                continue
            extended = pre.extend_model(result.model)
            assert extended == _extend_with_lit_true(pre._eliminated, result.model)
            for clauses in pre._eliminated.values():
                for clause in clauses:
                    assert any(extended.get(abs(lit), False) == (lit > 0) for lit in clause)

"""Tests for the AIG IR: strashing, rewriting and CNF lowering."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.aig import AIG, CnfLowering
from repro.aig.graph import K_AND, K_INPUT, K_ITE, K_XOR
from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver


def _fresh_aig_with_inputs(n: int):
    aig = AIG()
    return aig, [aig.add_input() for _ in range(n)]


class TestConstantPropagation:
    def test_and_constants(self):
        aig, (a,) = _fresh_aig_with_inputs(1)
        assert aig.and_(aig.TRUE, a) == a
        assert aig.and_(a, aig.TRUE) == a
        assert aig.and_(aig.FALSE, a) == aig.FALSE
        assert aig.and_(a, -a) == aig.FALSE
        assert aig.and_(a, a) == a

    def test_xor_constants(self):
        aig, (a,) = _fresh_aig_with_inputs(1)
        assert aig.xor_(aig.FALSE, a) == a
        assert aig.xor_(aig.TRUE, a) == -a
        assert aig.xor_(a, a) == aig.FALSE
        assert aig.xor_(a, -a) == aig.TRUE

    def test_ite_constants(self):
        aig, (c, t, e) = _fresh_aig_with_inputs(3)
        assert aig.ite(aig.TRUE, t, e) == t
        assert aig.ite(aig.FALSE, t, e) == e
        assert aig.ite(c, t, t) == t
        # Constant branches collapse to and/or.
        assert aig.ite(c, t, aig.FALSE) == aig.and_(c, t)
        assert aig.ite(c, aig.TRUE, e) == aig.or_(c, e)
        # Complementary branches collapse to an XOR cone.
        assert aig.ite(c, t, -t) == -aig.xor_(c, t)


class TestStructuralHashing:
    def test_commutative_operands_share_a_node(self):
        aig, (a, b) = _fresh_aig_with_inputs(2)
        assert aig.and_(a, b) == aig.and_(b, a)
        assert aig.xor_(a, b) == aig.xor_(b, a)

    def test_xor_negation_pushes_to_output(self):
        aig, (a, b) = _fresh_aig_with_inputs(2)
        assert aig.xor_(-a, b) == -aig.xor_(a, b)
        assert aig.xor_(-a, -b) == aig.xor_(a, b)

    def test_ite_negative_condition_swaps_branches(self):
        aig, (c, t, e) = _fresh_aig_with_inputs(3)
        assert aig.ite(-c, t, e) == aig.ite(c, e, t)

    def test_ite_negated_branches_pull_negation_out(self):
        aig, (c, t, e) = _fresh_aig_with_inputs(3)
        assert aig.ite(c, -t, -e) == -aig.ite(c, t, e)

    def test_repeated_structure_adds_no_nodes(self):
        aig, (a, b, c) = _fresh_aig_with_inputs(3)
        first = aig.and_(aig.xor_(a, b), c)
        nodes = aig.num_nodes()
        second = aig.and_(c, aig.xor_(b, a))
        assert first == second
        assert aig.num_nodes() == nodes


class TestTwoLevelRewrites:
    def test_containment(self):
        aig, (a, b) = _fresh_aig_with_inputs(2)
        inner = aig.and_(a, b)
        assert aig.and_(a, inner) == inner
        assert aig.and_(inner, b) == inner

    def test_contradiction(self):
        aig, (a, b) = _fresh_aig_with_inputs(2)
        inner = aig.and_(a, b)
        assert aig.and_(-a, inner) == aig.FALSE
        assert aig.and_(inner, -b) == aig.FALSE

    def test_subsumption(self):
        aig, (a, b) = _fresh_aig_with_inputs(2)
        inner = aig.and_(a, b)
        assert aig.and_(-inner, -a) == -a
        assert aig.and_(-b, -inner) == -b

    def test_substitution(self):
        aig, (a, b) = _fresh_aig_with_inputs(2)
        inner = aig.and_(a, b)
        assert aig.and_(a, -inner) == aig.and_(a, -b)
        assert aig.and_(-inner, b) == aig.and_(b, -a)

    def test_cross_conjunction_contradiction(self):
        aig, (a, b, c) = _fresh_aig_with_inputs(3)
        left = aig.and_(a, b)
        right = aig.and_(-a, c)
        assert aig.and_(left, right) == aig.FALSE

    def test_rewrites_preserve_semantics(self):
        """Every gate helper agrees with direct boolean evaluation."""
        aig, inputs = _fresh_aig_with_inputs(3)
        a, b, c = inputs
        inner = aig.and_(a, b)
        cases = [
            (aig.and_(a, inner), lambda va, vb, vc: va and vb),
            (aig.and_(-a, inner), lambda va, vb, vc: False),
            (aig.and_(a, -inner), lambda va, vb, vc: va and not (va and vb)),
            (aig.or_(inner, c), lambda va, vb, vc: (va and vb) or vc),
            (aig.xor_(-a, b), lambda va, vb, vc: (not va) ^ vb),
            (aig.ite(c, a, -a), lambda va, vb, vc: va if vc else not va),
            (aig.ite(-c, a, b), lambda va, vb, vc: vb if vc else va),
        ]
        for values in itertools.product([False, True], repeat=3):
            assignment = dict(zip(inputs, values))
            for lit, expected in cases:
                assert aig.evaluate(lit, assignment) == expected(*values)


class TestLowering:
    def _solve_equiv(self, aig, lit, inputs):
        """CNF lowering of ``lit`` agrees with graph evaluation everywhere."""
        cnf = CNF()
        true_var = cnf.new_var()
        cnf.add_clause([true_var])
        lowering = CnfLowering(aig, cnf, true_var)
        out = lowering.materialize(lit)
        input_cnf = {node: lowering.materialize(node) for node in inputs}
        for values in itertools.product([False, True], repeat=len(inputs)):
            assignment = dict(zip(inputs, values))
            expected = aig.evaluate(lit, assignment)
            solver = SatSolver()
            solver.add_cnf(cnf)
            assumptions = [
                input_cnf[node] if value else -input_cnf[node]
                for node, value in assignment.items()
            ]
            # out must be forced to the evaluated value
            agree = solver.solve(assumptions=assumptions + [out if expected else -out])
            assert agree.satisfiable is True
            disagree = SatSolver()
            disagree.add_cnf(cnf)
            flipped = disagree.solve(
                assumptions=assumptions + [-out if expected else out]
            )
            assert flipped.satisfiable is False

    def test_and_xor_ite_cones(self):
        aig, inputs = _fresh_aig_with_inputs(3)
        a, b, c = inputs
        self._solve_equiv(aig, aig.and_(aig.xor_(a, b), c), inputs)
        self._solve_equiv(aig, aig.ite(a, b, c), inputs)
        self._solve_equiv(aig, aig.ite(aig.xor_(a, c), aig.and_(a, b), -c), inputs)

    def test_lowering_is_incremental_and_cached(self):
        aig, (a, b, c) = _fresh_aig_with_inputs(3)
        gate = aig.and_(a, b)
        cnf = CNF()
        true_var = cnf.new_var()
        cnf.add_clause([true_var])
        lowering = CnfLowering(aig, cnf, true_var)
        first = lowering.materialize(gate)
        clauses_after = len(cnf.clauses)
        assert lowering.materialize(gate) == first
        assert lowering.materialize(-gate) == -first
        assert len(cnf.clauses) == clauses_after
        # A cone reusing the gate only lowers the new node.
        outer = aig.and_(gate, c)
        lowering.materialize(outer)
        assert len(cnf.clauses) == clauses_after + 3

    def test_unused_nodes_cost_no_clauses(self):
        aig, (a, b) = _fresh_aig_with_inputs(2)
        aig.and_(a, b)  # never materialised
        used = aig.xor_(a, b)
        cnf = CNF()
        true_var = cnf.new_var()
        cnf.add_clause([true_var])
        lowering = CnfLowering(aig, cnf, true_var)
        lowering.materialize(used)
        # 1 unit + 4 xor clauses; the unrelated AND gate emitted nothing.
        assert len(cnf.clauses) == 5

    def test_ite_lowers_to_four_clauses(self):
        aig, (c, t, e) = _fresh_aig_with_inputs(3)
        mux = aig.ite(c, t, e)
        cnf = CNF()
        true_var = cnf.new_var()
        cnf.add_clause([true_var])
        lowering = CnfLowering(aig, cnf, true_var)
        lowering.materialize(mux)
        assert len(cnf.clauses) == 5  # unit + 4 mux clauses


class TestLoweringNormalForm:
    """The lowering appends its clauses without ``CNF.add_clause``, so AIG
    construction must already give them the form that method would store:
    no repeated variable, every variable allocated by ``CNF.new_var``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_lower_to_normal_clauses(self, seed):
        rng = random.Random(seed)
        aig, inputs = _fresh_aig_with_inputs(rng.randint(2, 6))
        pool = list(inputs)

        def operand():
            lit = aig.TRUE if rng.random() < 0.1 else rng.choice(pool)
            return -lit if rng.random() < 0.5 else lit

        for _ in range(rng.randint(40, 120)):
            # Constant, repeated and complementary operands reach the
            # folding rules.
            a = operand()
            b = rng.choice((a, -a, operand(), operand(), operand()))
            kind = rng.choice(("and", "xor", "ite"))
            if kind == "and":
                lit = aig.and_(a, b)
            elif kind == "xor":
                lit = aig.xor_(a, b)
            else:
                else_lit = rng.choice((a, -a, b, -b, operand(), operand(), operand()))
                lit = aig.ite(a, b, else_lit)
            if abs(lit) != aig.TRUE:
                pool.append(lit)
        cnf = CNF()
        true_var = cnf.new_var()
        cnf.add_clause([true_var])
        lowering = CnfLowering(aig, cnf, true_var)
        roots = [lowering.materialize(lit) for lit in rng.sample(pool, len(pool))]
        assert lowering.nodes_lowered > 0
        for clause in cnf.clauses:
            assert len({abs(lit) for lit in clause}) == len(clause), clause
        assert CNF(cnf.clauses).clauses == cnf.clauses
        used = {abs(lit) for clause in cnf.clauses for lit in clause}
        used.update(abs(root) for root in roots)
        assert cnf.num_vars == max(used)


class TestStats:
    def test_stats_counters(self):
        aig, (a, b, c) = _fresh_aig_with_inputs(3)
        gate = aig.and_(a, b)
        assert aig.and_(a, b) == gate  # strash hit
        x = aig.xor_(a, c)
        m = aig.ite(c, a, b)
        assert aig.num_nodes() == 6
        assert [aig.kind(lit) for lit in (a, b, c)] == [K_INPUT] * 3
        assert [aig.kind(lit) for lit in (gate, x, m)] == [K_AND, K_XOR, K_ITE]

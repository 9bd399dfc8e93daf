"""Tests for bit-blasting and QF_BV solving through ``SolverContext``.

The key property is agreement between three evaluation paths: the concrete
evaluator, the word-level constant folder, and bit-blasting + CDCL search.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SmtError
from repro.sat.solver import SatSolver
from repro.smt import terms as T
from repro.smt.bitblast import BitBlaster
from repro.smt.evaluator import evaluate
from repro.solve import SolverContext
from repro.utils.bitops import mask

W = 6
X = T.bv_var("bb_x", W)
Y = T.bv_var("bb_y", W)

values = st.integers(min_value=0, max_value=mask(W))


def _solver_agrees_with_evaluator(term: T.BV, x: int, y: int) -> bool:
    """Check the bit-blasted value of ``term`` under forced inputs."""
    blaster = BitBlaster()
    bits = blaster.blast(term)
    # Force the inputs through unit clauses.
    for var, value in ((X, x), (Y, y)):
        var_bits = blaster.blast(var)
        for i, lit in enumerate(var_bits):
            blaster.cnf.add_clause([lit if (value >> i) & 1 else -lit])
    result = SatSolver(blaster.cnf).solve()
    assert result.satisfiable
    got = 0
    for i, lit in enumerate(bits):
        lit_true = result.model.get(abs(lit), False) == (lit > 0)
        if lit_true:
            got |= 1 << i
    return got == evaluate(term, {"bb_x": x, "bb_y": y})


class TestBitBlastAgainstEvaluator:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: T.bv_add(X, Y),
            lambda: T.bv_sub(X, Y),
            lambda: T.bv_mul(X, Y),
            lambda: T.bv_and(X, Y),
            lambda: T.bv_or(X, Y),
            lambda: T.bv_xor(X, Y),
            lambda: T.bv_zext(T.bv_ult(X, Y), W),
            lambda: T.bv_zext(T.bv_slt(X, Y), W),
            lambda: T.bv_zext(T.bv_eq(X, Y), W),
            lambda: T.bv_shl(X, Y),
            lambda: T.bv_lshr(X, Y),
            lambda: T.bv_ashr(X, Y),
            lambda: T.bv_ite(T.bv_slt(X, Y), T.bv_sub(Y, X), T.bv_sub(X, Y)),
            lambda: T.bv_extract(T.bv_mul(X, Y), W - 1, 1),
            lambda: T.bv_sext(T.bv_extract(X, 2, 0), W),
        ],
        ids=lambda b: "expr",
    )
    @settings(max_examples=12, deadline=None)
    @given(values, values)
    def test_operator(self, builder, x, y):
        term = builder()
        if term.width < W:
            term = T.bv_zext(term, W)
        assert _solver_agrees_with_evaluator(term, x, y)


def _solve(terms: list[T.BV]):
    """A fresh context's verdict on the conjunction of ``terms``."""
    solver = SolverContext()
    solver.add_all(terms)
    return solver.check()


def _valid(term: T.BV) -> bool:
    """True when the width-1 ``term`` holds for every assignment."""
    return not _solve([T.bv_not(term)]).satisfiable


class TestSolverContextQueries:
    def test_assert_requires_width_one(self):
        solver = SolverContext()
        with pytest.raises(SmtError):
            solver.add(X)

    def test_sat_with_model(self):
        result = _solve([T.bv_eq(T.bv_add(X, Y), T.bv_const(9, W)), T.bv_ult(X, Y)])
        assert result.satisfiable
        x, y = result.model["bb_x"], result.model["bb_y"]
        assert (x + y) & mask(W) == 9 and x < y

    def test_unsat(self):
        result = _solve([T.bv_ult(X, Y), T.bv_ult(Y, X)])
        assert result.satisfiable is False

    def test_trivially_false_assertion(self):
        solver = SolverContext()
        solver.add(T.bv_false())
        assert solver.check().satisfiable is False

    def test_assumptions(self):
        solver = SolverContext()
        solver.add(T.bv_ule(X, T.bv_const(5, W)))
        sat = solver.check(assumptions=[T.bv_eq(X, T.bv_const(3, W))])
        assert sat.satisfiable and sat.model["bb_x"] == 3
        unsat = solver.check(assumptions=[T.bv_eq(X, T.bv_const(9, W))])
        assert unsat.satisfiable is False

    def test_value_of_composite_terms(self):
        result = _solve([T.bv_eq(X, T.bv_const(5, W)), T.bv_eq(Y, T.bv_const(2, W))])
        assert result.value_of(T.bv_add(X, Y)) == 7

    def test_check_valid_algebraic_identities(self):
        assert _valid(T.bv_eq(T.bv_sub(T.bv_add(X, Y), Y), X))
        assert _valid(T.bv_eq(T.bv_not(T.bv_add(T.bv_not(X), Y)), T.bv_sub(X, Y)))
        assert _valid(T.bv_eq(T.bv_xor(T.bv_xor(X, Y), Y), X))
        assert not _valid(T.bv_eq(X, Y))
        a, b, c = (T.bv_var(f"bb_assoc_{name}", 8) for name in "abc")
        assert _valid(T.bv_eq(T.bv_add(T.bv_add(a, b), c), T.bv_add(a, T.bv_add(b, c))))

    def test_mulh_identity(self):
        """The MULH.C decomposition identity used by the component library.

        Checked exhaustively at 4 bits by constant folding (multiplier
        equivalence queries are the classic hard case for SAT, so we keep
        the solver out of this one).
        """
        w = 4
        for x in range(16):
            for y in range(16):
                a, b = T.bv_const(x, w), T.bv_const(y, w)
                double = 2 * w
                mulh = T.bv_extract(T.bv_mul(T.bv_sext(a, double), T.bv_sext(b, double)), double - 1, w)
                mulhu = T.bv_extract(T.bv_mul(T.bv_zext(a, double), T.bv_zext(b, double)), double - 1, w)
                shamt = T.bv_const(w - 1, w)
                corr = T.bv_sub(
                    T.bv_sub(mulhu, T.bv_and(T.bv_ashr(a, shamt), b)),
                    T.bv_and(T.bv_ashr(b, shamt), a),
                )
                assert mulh.const_value() == corr.const_value()

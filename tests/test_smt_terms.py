"""Tests for the bit-vector term DSL, evaluator and simplifier."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SmtError
from repro.smt import terms as T
from repro.smt.evaluator import evaluate, free_variables, substitute
from repro.utils.bitops import mask, to_signed

W = 8
A = T.bv_var("tsmt_a", W)
B = T.bv_var("tsmt_b", W)
C = T.bv_var("tsmt_c", W)

values = st.integers(min_value=0, max_value=mask(W))


class TestConstruction:
    def test_const_truncation(self):
        assert T.bv_const(0x1FF, 8).const_value() == 0xFF
        assert T.bv_const(-1, 8).const_value() == 0xFF

    def test_var_width_clash_rejected(self):
        T.bv_var("tsmt_clash", 8)
        with pytest.raises(SmtError):
            T.bv_var("tsmt_clash", 16)

    def test_hash_consing(self):
        assert T.bv_add(A, B) is T.bv_add(A, B)
        assert T.bv_add(A, B) is T.bv_add(B, A)  # commutative canonicalisation

    def test_width_mismatch_rejected(self):
        with pytest.raises(SmtError):
            T.bv_add(A, T.bv_const(0, 4))

    def test_ite_condition_must_be_bool(self):
        with pytest.raises(SmtError):
            T.bv_ite(A, A, B)

    def test_extract_range_checked(self):
        with pytest.raises(SmtError):
            T.bv_extract(A, 8, 0)
        with pytest.raises(SmtError):
            T.bv_extract(A, 3, 5)


class TestSimplification:
    def test_constant_folding(self):
        assert T.bv_add(T.bv_const(3, 8), T.bv_const(4, 8)).const_value() == 7
        assert T.bv_mul(T.bv_const(20, 8), T.bv_const(20, 8)).const_value() == (400 & 0xFF)

    def test_identity_rules(self):
        zero = T.bv_const(0, W)
        ones = T.bv_const(mask(W), W)
        assert T.bv_add(A, zero) is A
        assert T.bv_and(A, ones) is A
        assert T.bv_and(A, zero).const_value() == 0
        assert T.bv_or(A, zero) is A
        assert T.bv_xor(A, zero) is A
        assert T.bv_sub(A, zero) is A
        assert T.bv_mul(A, T.bv_const(1, W)) is A

    def test_self_cancellation(self):
        assert T.bv_xor(A, A).const_value() == 0
        assert T.bv_sub(A, A).const_value() == 0
        assert T.bv_eq(A, A).const_value() == 1
        assert T.bv_ult(A, A).const_value() == 0

    def test_double_negation(self):
        assert T.bv_not(T.bv_not(A)) is A

    def test_ite_collapse(self):
        cond = T.bv_eq(A, B)
        assert T.bv_ite(T.bv_true(), A, B) is A
        assert T.bv_ite(T.bv_false(), A, B) is B
        assert T.bv_ite(cond, A, A) is A
        assert T.bv_ite(cond, T.bv_true(), T.bv_false()) is cond

    def test_nested_extract_fusion(self):
        inner = T.bv_extract(A, 6, 1)
        outer = T.bv_extract(inner, 3, 2)
        assert outer.op == T.OP_EXTRACT
        assert outer.args[0] is A
        assert outer.params == (4, 3)

    def test_shift_by_zero(self):
        zero = T.bv_const(0, W)
        assert T.bv_shl(A, zero) is A
        assert T.bv_lshr(A, zero) is A
        assert T.bv_ashr(A, zero) is A


class TestEvaluator:
    @given(values, values)
    def test_arithmetic_ops(self, x, y):
        env = {"tsmt_a": x, "tsmt_b": y}
        assert evaluate(T.bv_add(A, B), env) == (x + y) & mask(W)
        assert evaluate(T.bv_sub(A, B), env) == (x - y) & mask(W)
        assert evaluate(T.bv_mul(A, B), env) == (x * y) & mask(W)
        assert evaluate(T.bv_and(A, B), env) == (x & y)
        assert evaluate(T.bv_or(A, B), env) == (x | y)
        assert evaluate(T.bv_xor(A, B), env) == (x ^ y)
        assert evaluate(T.bv_not(A), env) == (~x) & mask(W)

    @given(values, values)
    def test_comparisons(self, x, y):
        env = {"tsmt_a": x, "tsmt_b": y}
        assert evaluate(T.bv_eq(A, B), env) == int(x == y)
        assert evaluate(T.bv_ult(A, B), env) == int(x < y)
        assert evaluate(T.bv_slt(A, B), env) == int(to_signed(x, W) < to_signed(y, W))
        assert evaluate(T.bv_ule(A, B), env) == int(x <= y)
        assert evaluate(T.bv_sle(A, B), env) == int(to_signed(x, W) <= to_signed(y, W))

    @given(values, st.integers(min_value=0, max_value=15))
    def test_shifts(self, x, amount):
        env = {"tsmt_a": x, "tsmt_b": amount}
        assert evaluate(T.bv_shl(A, B), env) == (0 if amount >= W else (x << amount) & mask(W))
        assert evaluate(T.bv_lshr(A, B), env) == (0 if amount >= W else x >> amount)
        expected_ashr = (to_signed(x, W) >> min(amount, W - 1)) & mask(W)
        assert evaluate(T.bv_ashr(A, B), env) == expected_ashr

    @given(values)
    def test_extensions_and_extract(self, x):
        env = {"tsmt_a": x}
        assert evaluate(T.bv_zext(A, 16), env) == x
        assert evaluate(T.bv_sext(A, 16), env) == (to_signed(x, W) & mask(16))
        assert evaluate(T.bv_extract(A, 3, 0), env) == (x & 0xF)
        assert evaluate(T.bv_concat(A, A), env) == ((x << W) | x)

    def test_missing_variable_rejected(self):
        with pytest.raises(SmtError):
            evaluate(T.bv_add(A, B), {"tsmt_a": 1})

    @settings(max_examples=30)
    @given(values, values)
    def test_evaluation_matches_folding(self, x, y):
        """Constant-folding in the constructors agrees with the evaluator."""
        symbolic = T.bv_add(T.bv_mul(A, B), T.bv_xor(A, B))
        folded = T.bv_add(
            T.bv_mul(T.bv_const(x, W), T.bv_const(y, W)),
            T.bv_xor(T.bv_const(x, W), T.bv_const(y, W)),
        )
        assert folded.is_const
        assert evaluate(symbolic, {"tsmt_a": x, "tsmt_b": y}) == folded.const_value()


class TestSubstitution:
    def test_substitute_variable(self):
        term = T.bv_add(A, B)
        replaced = substitute(term, {A: T.bv_const(3, W)})
        assert evaluate(replaced, {"tsmt_b": 4}) == 7

    def test_substitute_preserves_unmatched(self):
        term = T.bv_add(A, B)
        assert substitute(term, {}) is term

    def test_substitute_width_mismatch_rejected(self):
        with pytest.raises(SmtError):
            substitute(A, {A: T.bv_const(0, 4)})

    def test_free_variables(self):
        term = T.bv_ite(T.bv_eq(A, B), A, T.bv_const(0, W))
        names = {v.name for v in free_variables(term)}
        assert names == {"tsmt_a", "tsmt_b"}

    def test_fresh_vars_are_unique(self):
        first = T.fresh_var("tsmt_fresh", 8)
        second = T.fresh_var("tsmt_fresh", 8)
        assert first is not second
        assert first.name != second.name


def _term_pool(rng: random.Random, count: int) -> list[T.BV]:
    """Terms built from earlier ones, so they share many sub-terms."""
    binary = [T.bv_add, T.bv_sub, T.bv_mul, T.bv_and, T.bv_or, T.bv_xor, T.bv_shl, T.bv_lshr]
    pool = [A, B, C, T.bv_const(3, W)]
    for _ in range(count):
        a, b = rng.choice(pool), rng.choice(pool)
        kind = rng.randrange(4)
        if kind == 0:
            term = rng.choice(binary)(a, b)
        elif kind == 1:
            term = T.bv_ite(T.bv_ult(a, b), a, b)
        elif kind == 2:
            term = T.bv_not(a)
        else:
            term = T.bv_ite(T.bv_eq(a, b), T.bv_neg(a), b)
        pool.append(term)
    return pool


class TestSharedCaches:
    """A cache shared by calls under one assignment or mapping changes no result."""

    def test_evaluate_with_a_shared_cache_matches_fresh_calls(self):
        rng = random.Random(31)
        pool = _term_pool(rng, 120)
        for _ in range(5):
            env = {name: rng.getrandbits(W) for name in ("tsmt_a", "tsmt_b", "tsmt_c")}
            cache: dict = {}
            for term in rng.sample(pool, len(pool)):
                assert evaluate(term, env, cache) == evaluate(term, env)

    def test_substitute_with_a_shared_cache_matches_fresh_calls(self):
        rng = random.Random(37)
        pool = _term_pool(rng, 120)
        mappings = [
            {A: T.bv_add(B, T.bv_const(1, W)), B: T.bv_xor(C, A)},
            {C: T.bv_const(5, W)},
            {T.bv_add(A, B): C, A: T.bv_not(C)},
        ]
        for mapping in mappings:
            cache: dict = {}
            for term in rng.sample(pool, len(pool)):
                assert substitute(term, mapping, cache).tid == substitute(term, mapping).tid
            # A key met only after the cache was seeded is still replaced.
            for key, value in mapping.items():
                assert substitute(key, mapping, cache) is value

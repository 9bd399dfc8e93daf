"""Abstract transfer function over the full ``repro.smt.terms`` operator set.

:func:`abstract_eval` interprets a term DAG under an environment mapping
variable names to :class:`~repro.absint.domains.AbstractValue`, mirroring
the shape of :func:`repro.smt.evaluator.evaluate` (iterative, cached by
``tid``).  :class:`TransitionEvaluator` is the fixpoint's evaluator: it
keeps its cache across worklist steps, invalidated per latch, and refines
variables through the guards of next-state ITE spines.  When every operand
is a proven constant the transfer delegates to the concrete evaluator's
operator table, so the abstract semantics can never drift from the
concrete ones on the constant fragment.

Every per-operator rule below over-approximates: the result's
concretisation includes ``op(x1..xn)`` for all concrete ``xi`` drawn from
the operand abstractions.  The randomized simulation-subsumption tests
check exactly this against :func:`repro.smt.evaluator.evaluate`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.absint import domains as D
from repro.absint.domains import AbstractValue
from repro.errors import AbsintError
from repro.smt import terms as T
from repro.smt.evaluator import _apply
from repro.smt.terms import BV
from repro.utils.bitops import mask, to_signed


def abstract_eval(
    term: BV,
    env: Mapping[str, AbstractValue],
    cache: "Optional[dict[int, AbstractValue]]" = None,
) -> AbstractValue:
    """Evaluate ``term`` to an abstract value under ``env``.

    A variable missing from ``env`` is an error — silently treating it as
    top would hide wiring bugs in the fixpoint engine.  ``cache`` (tid →
    value) may be shared across calls evaluating different terms under the
    *same* environment; callers that inspect per-node values (the lint
    overflow rule) read it back after the call.
    """
    if cache is None:
        cache = {}
    stack: list[tuple[BV, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node.tid in cache:
            continue
        if node.op == T.OP_CONST:
            cache[node.tid] = D.const(node.width, node.const_value())
            continue
        if node.op == T.OP_VAR:
            assert node.name is not None
            if node.name not in env:
                raise AbsintError(f"no abstract value for variable {node.name!r}")
            value = env[node.name]
            if value.width != node.width:
                raise AbsintError(
                    f"abstract width mismatch for {node.name!r}: "
                    f"{value.width} vs {node.width}"
                )
            cache[node.tid] = value
            continue
        if not expanded:
            stack.append((node, True))
            for arg in node.args:
                if arg.tid not in cache:
                    stack.append((arg, False))
            continue
        args = [cache[a.tid] for a in node.args]
        cache[node.tid] = transfer(node, args)
    return cache[term.tid]


_NO_NAMES: frozenset[str] = frozenset()


class TransitionEvaluator:
    """Abstract evaluation for one fixpoint run, memoised by term id.

    ``env`` is the run's variable environment.  Every value computed under
    it stays cached until :meth:`set` changes a latch, which drops exactly
    the entries whose free variables include that latch, so a worklist
    step re-walks only what the last update can have changed.  What a
    branch guard refines in ``env`` is cached and dropped with the guard.

    :meth:`step` walks a next-state term's ITE spine with branch-condition
    refinement.  Each refined branch is a level: the variables whose value
    the refinement changed, and a cache local to the branch.  A node's
    value is cached at the innermost level whose changed variables meet
    the node's free variables, or in the base cache when none do: only
    then is its value the same as under ``env``.
    """

    def __init__(self, env: dict[str, AbstractValue], latches: Iterable[str]):
        self.env = env
        #: Free variable names of every walked node (tid -> names); the
        #: variable terms found on the way, by name, in discovery order.
        self.free: dict[int, frozenset[str]] = {}
        self.variables: dict[str, BV] = {}
        self._base: dict[int, AbstractValue] = {}
        #: Branch refinements made in the base environment: condition tid
        #: -> {assumed value: changed variables}; dropped with the
        #: condition's own base entry, since they read the same variables.
        self._refinements: dict[int, dict[int, dict[str, AbstractValue]]] = {}
        self._readers: dict[str, set[int]] = {name: set() for name in latches}
        self._levels: list[tuple[dict[str, AbstractValue], dict[int, AbstractValue]]] = []

    def free_names(self, term: BV) -> frozenset[str]:
        """The names of the free variables of ``term`` (memoised per node)."""
        free = self.free
        names = free.get(term.tid)
        if names is not None:
            return names
        stack: list[tuple[BV, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if node.tid in free:
                continue
            if node.op == T.OP_VAR:
                assert node.name is not None
                free[node.tid] = frozenset((node.name,))
                self.variables.setdefault(node.name, node)
                continue
            if not expanded:
                stack.append((node, True))
                for arg in node.args:
                    if arg.tid not in free:
                        stack.append((arg, False))
                continue
            names = _NO_NAMES
            for arg in node.args:
                more = free[arg.tid]
                if more <= names:
                    continue
                names = more if names <= more else names | more
            free[node.tid] = names
        return free[term.tid]

    def set(self, name: str, value: AbstractValue) -> None:
        """Give latch ``name`` a new value and drop what read the old one."""
        self.env[name] = value
        readers = self._readers[name]
        for tid in readers:
            self._base.pop(tid, None)
            self._refinements.pop(tid, None)
        readers.clear()

    def value(self, term: BV) -> AbstractValue:
        """The abstract value of ``term`` in the current environment."""
        if term.tid not in self.free:
            self.free_names(term)
        cache_for = self._cache_for
        known = cache_for(term).get(term.tid)
        if known is not None:
            return known
        stack: list[tuple[BV, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            cache = cache_for(node)
            if node.tid in cache:
                continue
            if node.op == T.OP_CONST:
                cache[node.tid] = D.const(node.width, node.const_value())
                continue
            if node.op == T.OP_VAR:
                value = self._current(node.name)
                if value is None:
                    raise AbsintError(f"no abstract value for variable {node.name!r}")
                if value.width != node.width:
                    raise AbsintError(
                        f"abstract width mismatch for {node.name!r}: "
                        f"{value.width} vs {node.width}"
                    )
            elif not expanded:
                stack.append((node, True))
                for arg in node.args:
                    if arg.tid not in cache_for(arg):
                        stack.append((arg, False))
                continue
            else:
                value = transfer(node, [cache_for(a)[a.tid] for a in node.args])
            cache[node.tid] = value
            if cache is self._base:
                for name in self.free[node.tid]:
                    readers = self._readers.get(name)
                    if readers is not None:
                        readers.add(node.tid)
        return cache_for(term)[term.tid]

    def step(self, term: BV, depth: int = 8) -> AbstractValue:
        """Evaluate a next-state term with branch-condition refinement.

        Hardware next-state functions are almost always an ITE spine
        (``ite(guard, update, hold)``); evaluating both branches under the
        unrefined environment loses the very facts the guard establishes
        (e.g. a saturating counter's ``count < limit``).  This walks the
        top-level ITE spine, assumes the condition true/false in each
        branch (refining variable abstractions through AND/NOT/EQ/ULT
        patterns), and joins the branch results.  Depth-limited; anything
        deeper is a plain :meth:`value`, which is always sound.
        """
        if depth <= 0 or term.op != T.OP_ITE:
            return self.value(term)
        cond_term, then_term, else_term = term.args
        cond = self.value(cond_term)
        if cond.is_bottom:
            return D.bottom(term.width)
        if cond.is_const:
            branch = then_term if cond.const_value() == 1 else else_term
            return self.step(branch, depth - 1)
        then_v = self._branch(cond_term, 1, then_term, depth - 1)
        else_v = self._branch(cond_term, 0, else_term, depth - 1)
        return D.join(then_v, else_v)

    def _branch(self, cond: BV, value: int, term: BV, depth: int) -> AbstractValue:
        changed = self._refine(cond, value)
        if not changed:
            return self.step(term, depth)
        self._levels.append((changed, {}))
        try:
            return self.step(term, depth)
        finally:
            self._levels.pop()

    def _refine(self, cond: BV, value: int) -> dict[str, AbstractValue]:
        """The variables that assuming ``cond == value`` changes, refined."""
        memo = None
        if not self._levels:
            memo = self._refinements.setdefault(cond.tid, {})
            if value in memo:
                return memo[value]
        refined: dict[str, AbstractValue] = {}
        self._assume(cond, value, refined)
        changed = self._changed(refined)
        if memo is not None:
            memo[value] = changed
        return changed

    def _assume(self, cond: BV, value: int, refined: dict[str, AbstractValue]) -> None:
        """Refine ``refined`` (an overlay on the current environment) by
        assuming ``cond`` evaluates to ``value``.

        Only refinements that are *implied* by the assumption are applied
        (a meet with a derived constraint on a variable leaf), so the
        refined environment still over-approximates every concrete state
        satisfying the assumption.  Unrecognised shapes refine nothing.
        """
        op = cond.op
        if op == T.OP_VAR:
            self._meet_var(cond, D.const(1, value), refined)
            return
        if op == T.OP_NOT:
            self._assume(cond.args[0], 1 - value, refined)
            return
        if op == T.OP_AND and value == 1:
            self._assume(cond.args[0], 1, refined)
            self._assume(cond.args[1], 1, refined)
            return
        if op == T.OP_OR and value == 0:
            self._assume(cond.args[0], 0, refined)
            self._assume(cond.args[1], 0, refined)
            return
        if op == T.OP_EQ and value == 1:
            a, b = cond.args
            va, vb = self._operands(cond, refined)
            both = D.meet(va, vb)
            self._meet_var(a, both, refined)
            self._meet_var(b, both, refined)
            return
        if op == T.OP_ULT:
            a, b = cond.args
            w = a.width
            va, vb = self._operands(cond, refined)
            if value == 1:
                # a < b: a <= b.hi - 1 and b >= a.lo + 1.
                self._meet_var(a, D.from_interval(w, 0, vb.hi - 1), refined)
                self._meet_var(b, D.from_interval(w, va.lo + 1, mask(w)), refined)
            else:
                # a >= b: a >= b.lo and b <= a.hi.
                self._meet_var(a, D.from_interval(w, vb.lo, mask(w)), refined)
                self._meet_var(b, D.from_interval(w, 0, va.hi), refined)
            return

    def _operands(
        self, cond: BV, refined: dict[str, AbstractValue]
    ) -> tuple[AbstractValue, AbstractValue]:
        """Both operands' values under the partly refined environment."""
        a, b = cond.args
        changed = self._changed(refined)
        if not changed:
            return self.value(a), self.value(b)
        self._levels.append((changed, {}))
        try:
            return self.value(a), self.value(b)
        finally:
            self._levels.pop()

    def _meet_var(
        self, term: BV, value: AbstractValue, refined: dict[str, AbstractValue]
    ) -> None:
        name = term.name
        if term.op == T.OP_VAR and name in self.env:
            current = refined[name] if name in refined else self._current(name)
            refined[name] = D.meet(current, value)

    def _changed(self, refined: dict[str, AbstractValue]) -> dict[str, AbstractValue]:
        """The entries of ``refined`` that differ from the current environment."""
        return {
            name: value
            for name, value in refined.items()
            if value != self._current(name)
        }

    def _current(self, name: Optional[str]) -> Optional[AbstractValue]:
        for changed, _ in reversed(self._levels):
            if name in changed:
                return changed[name]
        return self.env.get(name or "")

    def _cache_for(self, node: BV) -> dict[int, AbstractValue]:
        if self._levels:
            names = self.free[node.tid]
            for changed, cache in reversed(self._levels):
                if not names.isdisjoint(changed):
                    return cache
        return self._base


def transfer(node: BV, args: list[AbstractValue]) -> AbstractValue:
    """Abstract semantics of one operator applied to abstract operands."""
    w = node.width
    if any(a.is_bottom for a in args):
        return D.bottom(w)
    if args and all(a.is_const for a in args):
        # Exact on constants, by construction: reuse the concrete operator
        # table so the two semantics cannot diverge.
        concrete = _apply(node, [a.const_value() for a in args])
        return D.const(w, concrete)

    op = node.op
    if op == T.OP_NOT:
        return _transfer_not(w, args[0])
    if op == T.OP_AND:
        return _transfer_and(w, args[0], args[1])
    if op == T.OP_OR:
        return _transfer_or(w, args[0], args[1])
    if op == T.OP_XOR:
        return _transfer_xor(w, args[0], args[1])
    if op == T.OP_ADD:
        return _transfer_add(w, args[0], args[1])
    if op == T.OP_SUB:
        return _transfer_sub(w, args[0], args[1])
    if op == T.OP_NEG:
        return _transfer_sub(w, D.const(w, 0), args[0])
    if op == T.OP_MUL:
        return _transfer_mul(w, args[0], args[1])
    if op == T.OP_EQ:
        return _transfer_eq(args[0], args[1])
    if op == T.OP_ULT:
        return _transfer_ult(args[0], args[1])
    if op == T.OP_SLT:
        return _transfer_slt(args[0], args[1])
    if op == T.OP_ITE:
        return _transfer_ite(args[0], args[1], args[2])
    if op == T.OP_CONCAT:
        return _transfer_concat(w, args[0], args[1])
    if op == T.OP_EXTRACT:
        high, low = node.params
        return _transfer_extract(w, args[0], high, low)
    if op in (T.OP_SHL, T.OP_LSHR, T.OP_ASHR):
        return _transfer_shift(op, w, args[0], args[1])
    raise AbsintError(f"no abstract transfer for operator {op!r}")


# ---------------------------------------------------------------------------
# bitwise
# ---------------------------------------------------------------------------


def _transfer_not(w: int, a: AbstractValue) -> AbstractValue:
    # ~x == mask - x, so the interval flips exactly.
    return D.make(
        w, a.known, ~a.bits & a.known & mask(w), mask(w) - a.hi, mask(w) - a.lo
    )


def _transfer_and(w: int, a: AbstractValue, b: AbstractValue) -> AbstractValue:
    known_zero = (a.known & ~a.bits) | (b.known & ~b.bits)
    known_one = a.known & b.known & a.bits & b.bits
    # x & y is no larger than either operand.
    return D.make(w, known_zero | known_one, known_one, 0, min(a.hi, b.hi))


def _transfer_or(w: int, a: AbstractValue, b: AbstractValue) -> AbstractValue:
    known_one = (a.known & a.bits) | (b.known & b.bits)
    known_zero = a.known & b.known & ~a.bits & ~b.bits
    # x | y sets no bit above either operand's highest possible bit, and
    # is at least as large as either operand.
    hi = mask(max(a.hi.bit_length(), b.hi.bit_length()))
    return D.make(w, known_zero | known_one, known_one, max(a.lo, b.lo), hi)


def _transfer_xor(w: int, a: AbstractValue, b: AbstractValue) -> AbstractValue:
    known = a.known & b.known
    hi = mask(max(a.hi.bit_length(), b.hi.bit_length()))
    return D.make(w, known, (a.bits ^ b.bits) & known, 0, hi)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def _ripple_known(
    w: int, a: AbstractValue, b: AbstractValue, carry_in: int
) -> tuple[int, int]:
    """Known bits of ``a + b + carry_in`` by ternary ripple-carry.

    The carry into each position is tracked as known/unknown; a position's
    sum bit is known only when both operand bits and the incoming carry
    are.
    """
    known = 0
    bits = 0
    carry, carry_known = carry_in, True
    for i in range(w):
        ka = (a.known >> i) & 1
        kb = (b.known >> i) & 1
        va = (a.bits >> i) & 1
        vb = (b.bits >> i) & 1
        if ka and kb:
            if carry_known:
                total = va + vb + carry
                bits |= (total & 1) << i
                known |= 1 << i
                carry = total >> 1
            elif va == vb:
                # majority(v, v, c) == v: equal operand bits pin the carry
                # out even though the sum bit stays unknown.
                carry, carry_known = va, True
            # Unequal known bits just propagate the unknown carry.
        elif carry_known and ((ka and va == carry) or (kb and vb == carry)):
            # majority(v, x, v) == v: a known operand bit equal to the
            # carry keeps the carry out, with an unknown sum bit.
            pass
        else:
            carry_known = False
    return known, bits


def _transfer_add(w: int, a: AbstractValue, b: AbstractValue) -> AbstractValue:
    known, bits = _ripple_known(w, a, b, 0)
    lo_sum = a.lo + b.lo
    hi_sum = a.hi + b.hi
    if hi_sum <= mask(w):
        lo, hi = lo_sum, hi_sum
    elif lo_sum > mask(w):
        # Every sum wraps exactly once (operands are < 2**w each).
        lo, hi = lo_sum - mask(w) - 1, hi_sum - mask(w) - 1
    else:
        lo, hi = 0, mask(w)
    return D.make(w, known, bits, lo, hi)


def _transfer_sub(w: int, a: AbstractValue, b: AbstractValue) -> AbstractValue:
    # a - b == a + ~b + 1 for the bit-level component.
    not_b = _transfer_not(w, b)
    known, bits = _ripple_known(w, a, not_b, 1)
    if a.lo >= b.hi:
        lo, hi = a.lo - b.hi, a.hi - b.lo
    elif a.hi < b.lo:
        # Every difference is negative, so every result wraps exactly once.
        lo, hi = a.lo - b.hi + mask(w) + 1, a.hi - b.lo + mask(w) + 1
    else:
        lo, hi = 0, mask(w)
    return D.make(w, known, bits, lo, hi)


def _trailing_known(a: AbstractValue) -> int:
    """Length of the run of known bits starting at bit 0."""
    count = 0
    while count < a.width and (a.known >> count) & 1:
        count += 1
    return count


def _transfer_mul(w: int, a: AbstractValue, b: AbstractValue) -> AbstractValue:
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            c = x.const_value()
            if c == 0:
                return D.const(w, 0)
            if c == 1:
                return y
            if c & (c - 1) == 0:
                # Multiplication by a power of two is a left shift.
                return _shift_by_const(T.OP_SHL, w, y, c.bit_length() - 1)
    # The low k product bits depend only on the low k operand bits.
    k = min(_trailing_known(a), _trailing_known(b))
    known = mask(k)
    bits = ((a.bits & mask(k)) * (b.bits & mask(k))) & mask(k)
    hi_prod = a.hi * b.hi
    if hi_prod <= mask(w):
        lo, hi = a.lo * b.lo, hi_prod
    else:
        lo, hi = 0, mask(w)
    return D.make(w, known, bits, lo, hi)


# ---------------------------------------------------------------------------
# comparisons (width-1 results)
# ---------------------------------------------------------------------------


def _bit_conflict(a: AbstractValue, b: AbstractValue) -> bool:
    common = a.known & b.known
    return (a.bits & common) != (b.bits & common)


def _transfer_eq(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if a.hi < b.lo or b.hi < a.lo or _bit_conflict(a, b):
        return D.const(1, 0)
    if a.is_const and b.is_const and a.const_value() == b.const_value():
        return D.const(1, 1)
    return D.top(1)


def _transfer_ult(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if a.hi < b.lo:
        return D.const(1, 1)
    if a.lo >= b.hi:
        return D.const(1, 0)
    return D.top(1)


def _signed_range(a: AbstractValue) -> tuple[int, int]:
    """Signed min/max of the values represented by ``a``."""
    w = a.width
    half = 1 << (w - 1)
    lows: list[int] = []
    highs: list[int] = []
    # Non-negative candidates: [lo, hi] ∩ [0, half-1].
    if a.lo < half:
        lows.append(a.lo)
        highs.append(min(a.hi, half - 1))
    # Negative candidates: [lo, hi] ∩ [half, mask] shifted down by 2**w.
    if a.hi >= half:
        lows.append(max(a.lo, half) - (half << 1))
        highs.append(a.hi - (half << 1))
    return min(lows), max(highs)


def _transfer_slt(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    amin, amax = _signed_range(a)
    bmin, bmax = _signed_range(b)
    if amax < bmin:
        return D.const(1, 1)
    if amin >= bmax:
        return D.const(1, 0)
    return D.top(1)


# ---------------------------------------------------------------------------
# structural
# ---------------------------------------------------------------------------


def _transfer_ite(
    cond: AbstractValue, then_v: AbstractValue, else_v: AbstractValue
) -> AbstractValue:
    if cond.is_const:
        return then_v if cond.const_value() == 1 else else_v
    return D.join(then_v, else_v)


def _transfer_concat(
    w: int, high: AbstractValue, low: AbstractValue
) -> AbstractValue:
    lw = low.width
    return D.make(
        w,
        (high.known << lw) | low.known,
        (high.bits << lw) | low.bits,
        (high.lo << lw) + low.lo,
        (high.hi << lw) + low.hi,
    )


def _transfer_extract(
    w: int, a: AbstractValue, high: int, low: int
) -> AbstractValue:
    known = (a.known >> low) & mask(w)
    bits = (a.bits >> low) & mask(w)
    if low == 0 and a.hi <= mask(w):
        lo, hi = a.lo, a.hi
    elif (a.lo >> low) == (a.hi >> low) and high == a.width - 1:
        # The truncated-away low bits are the only varying part.
        lo = hi = (a.lo >> low) & mask(w)
    else:
        lo, hi = 0, mask(w)
    return D.make(w, known, bits, lo, hi)


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def _shift_by_const(op: str, w: int, a: AbstractValue, amt: int) -> AbstractValue:
    if op == T.OP_SHL:
        if amt >= w:
            return D.const(w, 0)
        known = ((a.known << amt) | mask(amt)) & mask(w)
        bits = (a.bits << amt) & mask(w)
        if a.hi << amt <= mask(w):
            lo, hi = a.lo << amt, a.hi << amt
        else:
            lo, hi = 0, mask(w)
        return D.make(w, known, bits, lo, hi)
    if op == T.OP_LSHR:
        if amt >= w:
            return D.const(w, 0)
        # The vacated high bits are known zero.
        known = (a.known >> amt) | (mask(amt) << (w - amt))
        return D.make(w, known & mask(w), a.bits >> amt, a.lo >> amt, a.hi >> amt)
    # ASHR: the evaluator clamps the amount to width-1 and sign-extends.
    amt = min(amt, w - 1)
    msb = 1 << (w - 1)
    if a.known & msb:
        sign = 1 if a.bits & msb else 0
        fill = (mask(amt) << (w - amt)) & mask(w)
        known = ((a.known >> amt) | fill) & mask(w)
        bits = ((a.bits >> amt) | (fill if sign else 0)) & mask(w)
        if sign:
            lo, hi = 0, mask(w)
            if not a.is_bottom:
                lo = (to_signed(a.lo | msb, w) >> amt) & mask(w)
                hi = (to_signed(a.hi | msb, w) >> amt) & mask(w)
                if lo > hi:
                    lo, hi = 0, mask(w)
        else:
            lo, hi = a.lo >> amt, a.hi >> amt
        return D.make(w, known, bits, lo, hi)
    known = a.known >> amt
    # Without the sign the shifted-in bits are unknown; drop any stale
    # known bits in the fill region.
    known &= mask(w - amt)
    return D.make(w, known, a.bits >> amt & known, 0, mask(w))


def _transfer_shift(
    op: str, w: int, a: AbstractValue, amount: AbstractValue
) -> AbstractValue:
    if amount.is_const:
        return _shift_by_const(op, w, a, amount.const_value())
    # Join the results over every feasible shift amount.  Amounts >= w all
    # behave alike (zero for SHL/LSHR, clamp to w-1 for ASHR), so at most
    # w + 1 cases matter.
    result: AbstractValue | None = None
    for amt in range(w):
        if amount.contains(amt):
            shifted = _shift_by_const(op, w, a, amt)
            result = shifted if result is None else D.join(result, shifted)
    if amount.hi >= w:
        overflow = _shift_by_const(op, w, a, w)
        result = overflow if result is None else D.join(result, overflow)
    return result if result is not None else D.bottom(w)

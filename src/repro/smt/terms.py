"""Immutable, hash-consed bit-vector terms with eager simplification.

Every term is a :class:`BV` node with an operator, a width and children.
Terms are built through module-level smart constructors (``bv_add``,
``bv_ite``, ...) that perform constant folding and a handful of algebraic
rewrites at construction time.  Eager simplification matters a lot here:
the BMC unroller starts from a fully concrete initial state, so large parts
of the first frames collapse into constants before ever reaching the
bit-blaster.

Booleans are represented as width-1 bit-vectors (``1`` = true), which keeps
the type system to a single sort and mirrors how the downstream bit-blaster
treats them anyway.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import SmtError
from repro.utils.bitops import mask, to_signed

# Operator tags.  Kept as plain strings for cheap hashing and readable reprs.
OP_CONST = "const"
OP_VAR = "var"
OP_NOT = "not"
OP_AND = "and"
OP_OR = "or"
OP_XOR = "xor"
OP_ADD = "add"
OP_SUB = "sub"
OP_NEG = "neg"
OP_MUL = "mul"
OP_EQ = "eq"
OP_ULT = "ult"
OP_SLT = "slt"
OP_ITE = "ite"
OP_CONCAT = "concat"
OP_EXTRACT = "extract"
OP_SHL = "shl"
OP_LSHR = "lshr"
OP_ASHR = "ashr"

_ALL_OPS = {
    OP_CONST,
    OP_VAR,
    OP_NOT,
    OP_AND,
    OP_OR,
    OP_XOR,
    OP_ADD,
    OP_SUB,
    OP_NEG,
    OP_MUL,
    OP_EQ,
    OP_ULT,
    OP_SLT,
    OP_ITE,
    OP_CONCAT,
    OP_EXTRACT,
    OP_SHL,
    OP_LSHR,
    OP_ASHR,
}


class BV:
    """A single hash-consed bit-vector term.

    Instances should never be constructed directly; use the smart
    constructors in this module (or the operator overloads, which forward to
    them).
    """

    __slots__ = ("op", "width", "args", "value", "name", "params", "_hash", "tid")

    def __init__(
        self,
        op: str,
        width: int,
        args: tuple["BV", ...] = (),
        value: Optional[int] = None,
        name: Optional[str] = None,
        params: tuple[int, ...] = (),
        tid: int = -1,
    ):
        self.op = op
        self.width = width
        self.args = args
        self.value = value
        self.name = name
        self.params = params
        self.tid = tid
        self._hash = hash((op, width, tuple(a.tid for a in args), value, name, params))

    # Identity-based equality is safe because of hash-consing; `==` is
    # reserved for building equality *terms*, so real comparisons go through
    # `is` / `same_term`.
    def same_term(self, other: "BV") -> bool:
        """Structural equality (terms are hash-consed, so identity suffices)."""
        return self is other

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------ predicates

    @property
    def is_const(self) -> bool:
        return self.op == OP_CONST

    @property
    def is_var(self) -> bool:
        return self.op == OP_VAR

    def const_value(self) -> int:
        if not self.is_const:
            raise SmtError(f"term {self!r} is not a constant")
        assert self.value is not None
        return self.value

    # ------------------------------------------------------------- operators

    def __add__(self, other: "BV | int") -> "BV":
        return bv_add(self, _coerce(other, self.width))

    def __sub__(self, other: "BV | int") -> "BV":
        return bv_sub(self, _coerce(other, self.width))

    def __mul__(self, other: "BV | int") -> "BV":
        return bv_mul(self, _coerce(other, self.width))

    def __and__(self, other: "BV | int") -> "BV":
        return bv_and(self, _coerce(other, self.width))

    def __or__(self, other: "BV | int") -> "BV":
        return bv_or(self, _coerce(other, self.width))

    def __xor__(self, other: "BV | int") -> "BV":
        return bv_xor(self, _coerce(other, self.width))

    def __invert__(self) -> "BV":
        return bv_not(self)

    def __neg__(self) -> "BV":
        return bv_neg(self)

    def __lshift__(self, other: "BV | int") -> "BV":
        return bv_shl(self, _coerce(other, self.width))

    def __rshift__(self, other: "BV | int") -> "BV":
        return bv_lshr(self, _coerce(other, self.width))

    # ----------------------------------------------------------------- repr

    def __repr__(self) -> str:
        if self.op == OP_CONST:
            return f"BV({self.value:#x}[{self.width}])"
        if self.op == OP_VAR:
            return f"BV({self.name}[{self.width}])"
        if self.op == OP_EXTRACT:
            return f"BV(extract[{self.params[0]}:{self.params[1]}] {self.args[0]!r})"
        inner = ", ".join(repr(a) for a in self.args)
        return f"BV({self.op}[{self.width}] {inner})"


class TermManager:
    """Hash-consing table for :class:`BV` terms.

    A single default manager is used by the module-level constructors; tests
    may create separate managers to verify structural sharing in isolation.
    """

    def __init__(self) -> None:
        self._table: dict[tuple, BV] = {}
        self._next_tid = 0
        self._var_names: dict[str, BV] = {}

    def make(
        self,
        op: str,
        width: int,
        args: tuple[BV, ...] = (),
        value: Optional[int] = None,
        name: Optional[str] = None,
        params: tuple[int, ...] = (),
    ) -> BV:
        if op not in _ALL_OPS:
            raise SmtError(f"unknown operator {op!r}")
        if width <= 0:
            raise SmtError(f"bit-vector width must be positive, got {width}")
        key = (op, width, tuple(a.tid for a in args), value, name, params)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        term = BV(op, width, args, value=value, name=name, params=params, tid=self._next_tid)
        self._next_tid += 1
        self._table[key] = term
        return term

    def var(self, name: str, width: int) -> BV:
        """Return the variable ``name``; width clashes are an error."""
        existing = self._var_names.get(name)
        if existing is not None:
            if existing.width != width:
                raise SmtError(
                    f"variable {name!r} already exists with width {existing.width}"
                )
            return existing
        term = self.make(OP_VAR, width, name=name)
        self._var_names[name] = term
        return term


_DEFAULT_MANAGER = TermManager()


def _coerce(value: "BV | int", width: int) -> BV:
    if isinstance(value, BV):
        return value
    return bv_const(value, width)


def _check_same_width(a: BV, b: BV, op: str) -> None:
    if a.width != b.width:
        raise SmtError(f"{op}: width mismatch {a.width} vs {b.width}")


# --------------------------------------------------------------------------
# Leaf constructors
# --------------------------------------------------------------------------


def bv_const(value: int, width: int) -> BV:
    """A constant of the given width; ``value`` is truncated to ``width`` bits."""
    return _DEFAULT_MANAGER.make(OP_CONST, width, value=value & mask(width))


def bv_var(name: str, width: int) -> BV:
    """A free bit-vector variable (hash-consed by name)."""
    return _DEFAULT_MANAGER.var(name, width)


_FRESH_COUNTER = [0]


def fresh_var(prefix: str, width: int) -> BV:
    """A variable with a globally unique name derived from ``prefix``.

    Used by layers (unroller, CEGIS encoder) that need throw-away symbols
    and must not collide with user-chosen names or with each other.
    """
    _FRESH_COUNTER[0] += 1
    return bv_var(f"{prefix}!{_FRESH_COUNTER[0]}", width)


def bv_true() -> BV:
    return bv_const(1, 1)


def bv_false() -> BV:
    return bv_const(0, 1)


# --------------------------------------------------------------------------
# Bitwise operations
# --------------------------------------------------------------------------


def bv_not(a: BV) -> BV:
    if a.is_const:
        return bv_const(~a.const_value(), a.width)
    if a.op == OP_NOT:
        return a.args[0]
    return _DEFAULT_MANAGER.make(OP_NOT, a.width, (a,))


def bv_and(a: BV, b: BV) -> BV:
    _check_same_width(a, b, "and")
    if a.is_const and b.is_const:
        return bv_const(a.const_value() & b.const_value(), a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.const_value() == 0:
                return bv_const(0, a.width)
            if x.const_value() == mask(a.width):
                return y
    if a is b:
        return a
    return _DEFAULT_MANAGER.make(OP_AND, a.width, _ordered(a, b))


def bv_or(a: BV, b: BV) -> BV:
    _check_same_width(a, b, "or")
    if a.is_const and b.is_const:
        return bv_const(a.const_value() | b.const_value(), a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.const_value() == 0:
                return y
            if x.const_value() == mask(a.width):
                return bv_const(mask(a.width), a.width)
    if a is b:
        return a
    return _DEFAULT_MANAGER.make(OP_OR, a.width, _ordered(a, b))


def bv_xor(a: BV, b: BV) -> BV:
    _check_same_width(a, b, "xor")
    if a.is_const and b.is_const:
        return bv_const(a.const_value() ^ b.const_value(), a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.const_value() == 0:
                return y
            if x.const_value() == mask(a.width):
                return bv_not(y)
    if a is b:
        return bv_const(0, a.width)
    return _DEFAULT_MANAGER.make(OP_XOR, a.width, _ordered(a, b))


def _ordered(a: BV, b: BV) -> tuple[BV, BV]:
    """Canonical argument order for commutative operators (by term id)."""
    return (a, b) if a.tid <= b.tid else (b, a)


# --------------------------------------------------------------------------
# Arithmetic
# --------------------------------------------------------------------------


def bv_add(a: BV, b: BV) -> BV:
    _check_same_width(a, b, "add")
    if a.is_const and b.is_const:
        return bv_const(a.const_value() + b.const_value(), a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const and x.const_value() == 0:
            return y
    return _DEFAULT_MANAGER.make(OP_ADD, a.width, _ordered(a, b))


def bv_sub(a: BV, b: BV) -> BV:
    _check_same_width(a, b, "sub")
    if a.is_const and b.is_const:
        return bv_const(a.const_value() - b.const_value(), a.width)
    if b.is_const and b.const_value() == 0:
        return a
    if a is b:
        return bv_const(0, a.width)
    return _DEFAULT_MANAGER.make(OP_SUB, a.width, (a, b))


def bv_neg(a: BV) -> BV:
    if a.is_const:
        return bv_const(-a.const_value(), a.width)
    return bv_sub(bv_const(0, a.width), a)


def bv_mul(a: BV, b: BV) -> BV:
    _check_same_width(a, b, "mul")
    if a.is_const and b.is_const:
        return bv_const(a.const_value() * b.const_value(), a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.const_value() == 0:
                return bv_const(0, a.width)
            if x.const_value() == 1:
                return y
    return _DEFAULT_MANAGER.make(OP_MUL, a.width, _ordered(a, b))


# --------------------------------------------------------------------------
# Comparisons (width-1 results)
# --------------------------------------------------------------------------


def bv_eq(a: BV, b: BV) -> BV:
    _check_same_width(a, b, "eq")
    if a is b:
        return bv_true()
    if a.is_const and b.is_const:
        return bv_true() if a.const_value() == b.const_value() else bv_false()
    return _DEFAULT_MANAGER.make(OP_EQ, 1, _ordered(a, b))


def bv_ne(a: BV, b: BV) -> BV:
    return bv_not(bv_eq(a, b))


def bv_ult(a: BV, b: BV) -> BV:
    _check_same_width(a, b, "ult")
    if a.is_const and b.is_const:
        return bv_true() if a.const_value() < b.const_value() else bv_false()
    if a is b:
        return bv_false()
    return _DEFAULT_MANAGER.make(OP_ULT, 1, (a, b))


def bv_ule(a: BV, b: BV) -> BV:
    return bv_not(bv_ult(b, a))


def bv_slt(a: BV, b: BV) -> BV:
    _check_same_width(a, b, "slt")
    if a.is_const and b.is_const:
        lhs = to_signed(a.const_value(), a.width)
        rhs = to_signed(b.const_value(), b.width)
        return bv_true() if lhs < rhs else bv_false()
    if a is b:
        return bv_false()
    return _DEFAULT_MANAGER.make(OP_SLT, 1, (a, b))


def bv_sle(a: BV, b: BV) -> BV:
    return bv_not(bv_slt(b, a))


# --------------------------------------------------------------------------
# Structural operations
# --------------------------------------------------------------------------


def bv_ite(cond: BV, then_term: BV, else_term: BV) -> BV:
    if cond.width != 1:
        raise SmtError(f"ite condition must have width 1, got {cond.width}")
    _check_same_width(then_term, else_term, "ite")
    if cond.is_const:
        return then_term if cond.const_value() == 1 else else_term
    if then_term is else_term:
        return then_term
    # Boolean-valued ite over constants collapses to cond / not(cond).
    if then_term.width == 1 and then_term.is_const and else_term.is_const:
        if then_term.const_value() == 1 and else_term.const_value() == 0:
            return cond
        if then_term.const_value() == 0 and else_term.const_value() == 1:
            return bv_not(cond)
    return _DEFAULT_MANAGER.make(OP_ITE, then_term.width, (cond, then_term, else_term))


def bv_concat(high: BV, low: BV) -> BV:
    """Concatenate ``high`` above ``low`` (result width is the sum)."""
    if high.is_const and low.is_const:
        return bv_const(
            (high.const_value() << low.width) | low.const_value(),
            high.width + low.width,
        )
    return _DEFAULT_MANAGER.make(OP_CONCAT, high.width + low.width, (high, low))


def bv_extract(a: BV, high: int, low: int) -> BV:
    if not (0 <= low <= high < a.width):
        raise SmtError(
            f"extract [{high}:{low}] out of range for width {a.width}"
        )
    if a.is_const:
        return bv_const(a.const_value() >> low, high - low + 1)
    if low == 0 and high == a.width - 1:
        return a
    if a.op == OP_EXTRACT:
        inner_low = a.params[1]
        return bv_extract(a.args[0], inner_low + high, inner_low + low)
    return _DEFAULT_MANAGER.make(OP_EXTRACT, high - low + 1, (a,), params=(high, low))


def bv_zext(a: BV, to_width: int) -> BV:
    if to_width < a.width:
        raise SmtError(f"cannot zero-extend width {a.width} to {to_width}")
    if to_width == a.width:
        return a
    if a.is_const:
        return bv_const(a.const_value(), to_width)
    return bv_concat(bv_const(0, to_width - a.width), a)


def bv_sext(a: BV, to_width: int) -> BV:
    if to_width < a.width:
        raise SmtError(f"cannot sign-extend width {a.width} to {to_width}")
    if to_width == a.width:
        return a
    if a.is_const:
        extended = to_signed(a.const_value(), a.width)
        return bv_const(extended, to_width)
    sign = bv_extract(a, a.width - 1, a.width - 1)
    ext = bv_ite(
        bv_eq(sign, bv_const(1, 1)),
        bv_const(mask(to_width - a.width), to_width - a.width),
        bv_const(0, to_width - a.width),
    )
    return bv_concat(ext, a)


# --------------------------------------------------------------------------
# Shifts (shift amount is a same-width term; constant amounts fold)
# --------------------------------------------------------------------------


def bv_shl(a: BV, amount: BV) -> BV:
    _check_same_width(a, amount, "shl")
    if a.is_const and amount.is_const:
        amt = amount.const_value()
        if amt >= a.width:
            return bv_const(0, a.width)
        return bv_const(a.const_value() << amt, a.width)
    if amount.is_const and amount.const_value() == 0:
        return a
    return _DEFAULT_MANAGER.make(OP_SHL, a.width, (a, amount))


def bv_lshr(a: BV, amount: BV) -> BV:
    _check_same_width(a, amount, "lshr")
    if a.is_const and amount.is_const:
        amt = amount.const_value()
        if amt >= a.width:
            return bv_const(0, a.width)
        return bv_const(a.const_value() >> amt, a.width)
    if amount.is_const and amount.const_value() == 0:
        return a
    return _DEFAULT_MANAGER.make(OP_LSHR, a.width, (a, amount))


def bv_ashr(a: BV, amount: BV) -> BV:
    _check_same_width(a, amount, "ashr")
    if a.is_const and amount.is_const:
        amt = min(amount.const_value(), a.width - 1)
        return bv_const(to_signed(a.const_value(), a.width) >> amt, a.width)
    if amount.is_const and amount.const_value() == 0:
        return a
    return _DEFAULT_MANAGER.make(OP_ASHR, a.width, (a, amount))


# --------------------------------------------------------------------------
# Boolean convenience helpers (width-1 terms)
# --------------------------------------------------------------------------


def bv_implies(a: BV, b: BV) -> BV:
    if a.width != 1 or b.width != 1:
        raise SmtError("implies expects width-1 operands")
    return bv_or(bv_not(a), b)


def bv_and_all(terms: Iterable[BV]) -> BV:
    """Conjunction of width-1 terms (true for the empty sequence)."""
    result = bv_true()
    for term in terms:
        result = bv_and(result, term)
    return result


def bv_or_all(terms: Iterable[BV]) -> BV:
    """Disjunction of width-1 terms (false for the empty sequence)."""
    result = bv_false()
    for term in terms:
        result = bv_or(result, term)
    return result


def bv_distinct(terms: Sequence[BV]) -> BV:
    """Pairwise-distinct constraint over a sequence of same-width terms."""
    constraints = []
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            constraints.append(bv_ne(terms[i], terms[j]))
    return bv_and_all(constraints)

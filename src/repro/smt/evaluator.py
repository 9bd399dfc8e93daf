"""Concrete evaluation and substitution over bit-vector terms.

``evaluate`` interprets a term under an assignment of integer values to
variables; ``substitute`` rewrites a term replacing variables (or arbitrary
sub-terms) with other terms.  Both are iterative (explicit stack) so deep
pipelines unrolled over many cycles do not hit Python's recursion limit.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import SmtError
from repro.smt import terms as T
from repro.smt.terms import BV
from repro.utils.bitops import mask, to_signed


def evaluate(
    term: BV,
    assignment: Mapping[str, int] | None = None,
    cache: dict[int, int] | None = None,
) -> int:
    """Evaluate ``term`` to an unsigned integer.

    ``assignment`` maps variable *names* to integer values; a missing
    variable is an error so silent mis-evaluations cannot slip through.
    ``cache`` (tid -> value) may be shared by calls that evaluate
    different terms under the *same* assignment, so a shared sub-term is
    evaluated once; it is valid for that one assignment only.
    """
    assignment = assignment or {}
    if cache is None:
        cache = {}
    stack: list[tuple[BV, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node.tid in cache:
            continue
        if node.op == T.OP_CONST:
            cache[node.tid] = node.const_value()
            continue
        if node.op == T.OP_VAR:
            assert node.name is not None
            if node.name not in assignment:
                raise SmtError(f"no value for variable {node.name!r}")
            cache[node.tid] = assignment[node.name] & mask(node.width)
            continue
        if not expanded:
            stack.append((node, True))
            for arg in node.args:
                if arg.tid not in cache:
                    stack.append((arg, False))
            continue
        args = [cache[a.tid] for a in node.args]
        cache[node.tid] = _apply(node, args)
    return cache[term.tid]


def _apply(node: BV, args: list[int]) -> int:
    """Evaluate a single operator given the values of its children."""
    op = node.op
    w = node.width
    if op == T.OP_NOT:
        return (~args[0]) & mask(w)
    if op == T.OP_AND:
        return args[0] & args[1]
    if op == T.OP_OR:
        return args[0] | args[1]
    if op == T.OP_XOR:
        return args[0] ^ args[1]
    if op == T.OP_ADD:
        return (args[0] + args[1]) & mask(w)
    if op == T.OP_SUB:
        return (args[0] - args[1]) & mask(w)
    if op == T.OP_MUL:
        return (args[0] * args[1]) & mask(w)
    if op == T.OP_EQ:
        return 1 if args[0] == args[1] else 0
    if op == T.OP_ULT:
        return 1 if args[0] < args[1] else 0
    if op == T.OP_SLT:
        aw = node.args[0].width
        return 1 if to_signed(args[0], aw) < to_signed(args[1], aw) else 0
    if op == T.OP_ITE:
        return args[1] if args[0] == 1 else args[2]
    if op == T.OP_CONCAT:
        low_width = node.args[1].width
        return (args[0] << low_width) | args[1]
    if op == T.OP_EXTRACT:
        high, low = node.params
        return (args[0] >> low) & mask(high - low + 1)
    if op == T.OP_SHL:
        amt = args[1]
        return 0 if amt >= w else (args[0] << amt) & mask(w)
    if op == T.OP_LSHR:
        amt = args[1]
        return 0 if amt >= w else args[0] >> amt
    if op == T.OP_ASHR:
        aw = node.args[0].width
        amt = min(args[1], aw - 1)
        return (to_signed(args[0], aw) >> amt) & mask(w)
    raise SmtError(f"cannot evaluate operator {op!r}")


def substitute(
    term: BV, mapping: Mapping[BV, BV], cache: dict[int, BV] | None = None
) -> BV:
    """Return ``term`` with every occurrence of a key replaced by its value.

    Keys are matched by term identity (hash-consing makes this equivalent to
    structural matching).  The rewrite is applied bottom-up, so replaced
    sub-terms are not re-visited.  ``cache`` (tid -> rewritten term) may be
    shared by calls that rewrite different terms with the *same* mapping,
    so a shared sub-term is rewritten once; it is valid for that one
    mapping only.  An empty cache is seeded with the mapping.
    """
    if cache is None:
        cache = {}
    if not cache:
        for key, value in mapping.items():
            if key.width != value.width:
                raise SmtError(
                    f"substitution width mismatch: {key.width} vs {value.width}"
                )
        cache.update((key.tid, value) for key, value in mapping.items())

    stack: list[tuple[BV, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node.tid in cache:
            continue
        if not node.args:
            cache[node.tid] = node
            continue
        if not expanded:
            stack.append((node, True))
            for arg in node.args:
                if arg.tid not in cache:
                    stack.append((arg, False))
            continue
        new_args = [cache[a.tid] for a in node.args]
        if all(new is old for new, old in zip(new_args, node.args)):
            cache[node.tid] = node
        else:
            cache[node.tid] = _rebuild(node, new_args)
    return cache[term.tid]


def _rebuild(node: BV, args: list[BV]) -> BV:
    """Re-apply the smart constructor for ``node`` with new children."""
    op = node.op
    if op == T.OP_NOT:
        return T.bv_not(args[0])
    if op == T.OP_AND:
        return T.bv_and(args[0], args[1])
    if op == T.OP_OR:
        return T.bv_or(args[0], args[1])
    if op == T.OP_XOR:
        return T.bv_xor(args[0], args[1])
    if op == T.OP_ADD:
        return T.bv_add(args[0], args[1])
    if op == T.OP_SUB:
        return T.bv_sub(args[0], args[1])
    if op == T.OP_MUL:
        return T.bv_mul(args[0], args[1])
    if op == T.OP_EQ:
        return T.bv_eq(args[0], args[1])
    if op == T.OP_ULT:
        return T.bv_ult(args[0], args[1])
    if op == T.OP_SLT:
        return T.bv_slt(args[0], args[1])
    if op == T.OP_ITE:
        return T.bv_ite(args[0], args[1], args[2])
    if op == T.OP_CONCAT:
        return T.bv_concat(args[0], args[1])
    if op == T.OP_EXTRACT:
        high, low = node.params
        return T.bv_extract(args[0], high, low)
    if op == T.OP_SHL:
        return T.bv_shl(args[0], args[1])
    if op == T.OP_LSHR:
        return T.bv_lshr(args[0], args[1])
    if op == T.OP_ASHR:
        return T.bv_ashr(args[0], args[1])
    raise SmtError(f"cannot rebuild operator {op!r}")


def free_variables(term: BV) -> set[BV]:
    """Collect every variable occurring in ``term``."""
    seen: set[int] = set()
    variables: set[BV] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if node.tid in seen:
            continue
        seen.add(node.tid)
        if node.is_var:
            variables.add(node)
        stack.extend(node.args)
    return variables

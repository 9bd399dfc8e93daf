"""Model lint: well-formedness rules over a word-level transition system.

Rules (dotted ids, severity in brackets):

* ``model.missing-next`` [error] — a latch with no next-state function.
* ``model.width-mismatch`` [error] — an init/next term whose width differs
  from its latch, or a constraint/property that is not width 1 (possible by
  mutating :class:`~repro.ts.system.StateVar` fields directly, which is how
  generated models break).
* ``model.undeclared-symbol`` [error] — a next/constraint/property term
  mentioning a variable that is neither a declared state nor an input.
* ``model.symbolic-init`` [info] — an init term over undeclared rigid
  symbols.  This is the supported idiom for "same unknown initial value"
  (QED's shared ``*_init_reg*`` symbols), so it is informational only.
* ``model.init-state-ref`` [error] — an init term referencing a declared
  *state* symbol.  Every engine reads a symbol an init term reads as
  rigid — one free value for the whole run — so such a reference does not
  mean "that latch's initial value": it is the representable form of a
  combinational dependency loop at reset.
* ``model.comb-cycle`` [error] — a cycle in the init-term state-reference
  graph (including a self-reference), i.e. no well-founded reset value
  exists at all.
* ``model.latch-no-init`` [warning] — a latch with no init term: its reset
  value is free, which is usually an unintended verification hole.
* ``model.dead-latch`` [warning] — a latch outside the cone of influence
  of every property (computed with :func:`repro.ts.coi.cached_property_cone`,
  so repeated lint/BMC runs over one design share the cones).
* ``model.seq-const-latch`` [warning] — a latch provably stuck at its
  (constant) initial value in every reachable state.  Backed by the
  :mod:`repro.absint` reachability fixpoint, whose constancy pass subsumes
  the original syntactic substitution algorithm (kept as the fallback when
  the fixpoint fails to converge).
* ``model.bit-stuck-latch`` [info] — a latch that is not fully constant
  but has individual bits proven stuck in every reachable state.
* ``model.interval-overflow-impossible`` [info] — add/sub/mul nodes in
  next-state or property logic whose abstract operand intervals prove the
  result can never wrap at its width (only non-trivial facts are reported:
  the proof must fail for unconstrained operands).
* ``model.unreachable-property-violation`` [info] — a property the
  abstract reachable-state over-approximation already proves (no reachable
  state can violate it), without the property being syntactically constant.
* ``model.const-property`` [error if false, warning if true] — a property
  that constant-folded during construction.
* ``model.const-constraint`` [error if false, info if true] — a constraint
  that constant-folded; a false constraint makes every property vacuous.
* ``model.free-input-in-property`` [warning] — a primary input read
  directly by a property and not mentioned by any constraint.
* ``model.no-property`` [warning] — nothing to verify.
"""

from __future__ import annotations

from repro.absint import analyze
from repro.absint import domains as D
from repro.absint.fixpoint import Analysis
from repro.absint.transfer import abstract_eval
from repro.errors import AbsintError
from repro.smt.evaluator import free_variables, substitute
from repro.smt import terms as T
from repro.smt.terms import BV
from repro.lint.findings import (
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
    LintReport,
)
from repro.ts.coi import cached_property_cone
from repro.ts.system import TransitionSystem
from repro.utils.bitops import mask


def lint_transition_system(ts: TransitionSystem) -> LintReport:
    """Run every model-lint rule over ``ts`` and return the report."""
    report = LintReport()
    states = {s.name: s for s in ts.states}
    input_names = {i.name for i in ts.inputs}
    declared = set(states) | input_names

    structurally_broken = False

    # ---------------------------------------------------- per-latch structure
    for state in ts.states:
        where = f"state {state.name}"
        if state.next is None:
            structurally_broken = True
            report.add(
                "model.missing-next",
                SEV_ERROR,
                where,
                "latch has no next-state function",
                "call ts.set_next() for every declared state",
            )
        elif state.next.width != state.width:
            structurally_broken = True
            report.add(
                "model.width-mismatch",
                SEV_ERROR,
                where,
                f"next-state term has width {state.next.width}, "
                f"latch has width {state.width}",
                "rebuild the next term at the latch width",
            )
        if state.init is None:
            report.add(
                "model.latch-no-init",
                SEV_WARNING,
                where,
                "latch has no initial value (reset state is unconstrained)",
                "pass init= to ts.add_state() or call ts.set_init()",
            )
        elif state.init.width != state.width:
            structurally_broken = True
            report.add(
                "model.width-mismatch",
                SEV_ERROR,
                where,
                f"init term has width {state.init.width}, "
                f"latch has width {state.width}",
                "rebuild the init term at the latch width",
            )

    # ------------------------------------------------------ symbol discipline
    def check_symbols(term: BV, where: str) -> None:
        unknown = sorted(
            v.name or "?" for v in free_variables(term) if (v.name or "") not in declared
        )
        if unknown:
            report.add(
                "model.undeclared-symbol",
                SEV_ERROR,
                where,
                f"references undeclared symbols: {unknown}",
                "declare them with ts.add_state()/ts.add_input()",
            )

    for state in ts.states:
        if state.next is not None:
            check_symbols(state.next, f"state {state.name} (next)")
    for index, constraint in enumerate(ts.constraints):
        check_symbols(constraint, f"constraint[{index}]")
    for prop_name, prop in ts.properties.items():
        check_symbols(prop, f"property {prop_name}")

    # Init terms follow a different discipline: undeclared rigid symbols are
    # the supported "shared unknown initial value" idiom (info), while a
    # reference to a declared *state* is ill-founded under the unroller's
    # one-pass frame-0 substitution (error).
    init_state_refs: dict[str, set[str]] = {}
    for state in ts.states:
        if state.init is None:
            continue
        where = f"state {state.name} (init)"
        init_vars = free_variables(state.init)
        rigid = sorted(
            v.name or "?" for v in init_vars if (v.name or "") not in declared
        )
        if rigid:
            report.add(
                "model.symbolic-init",
                SEV_INFO,
                where,
                f"initial value is symbolic over {rigid}",
                "",
            )
        refs = {v.name for v in init_vars if v.name in states}
        if refs:
            init_state_refs[state.name] = refs
            report.add(
                "model.init-state-ref",
                SEV_ERROR,
                where,
                f"initial value references state symbols {sorted(refs)}; "
                "the unroller treats these as rigid free symbols, not "
                "initial values",
                "use a shared fresh variable (T.fresh_var) for coupled resets",
            )

    # Cycles in the init reference graph mean no well-founded reset exists.
    for cycle in _cycles(init_state_refs):
        report.add(
            "model.comb-cycle",
            SEV_ERROR,
            f"state {cycle[0]} (init)",
            "combinational cycle through initial values: "
            + " -> ".join(cycle + (cycle[0],)),
            "break the cycle with a concrete or fresh-symbol reset value",
        )

    # ------------------------------------------------- constant-folded terms
    for prop_name, prop in ts.properties.items():
        if prop.is_const:
            if prop.const_value() == 0:
                report.add(
                    "model.const-property",
                    SEV_ERROR,
                    f"property {prop_name}",
                    "property is constant false (fails in the initial state "
                    "with no design involvement)",
                    "the property folded during construction; check its terms",
                )
            else:
                report.add(
                    "model.const-property",
                    SEV_WARNING,
                    f"property {prop_name}",
                    "property is constant true (verifies nothing)",
                    "the property folded during construction; check its terms",
                )
    for index, constraint in enumerate(ts.constraints):
        if constraint.is_const:
            if constraint.const_value() == 0:
                report.add(
                    "model.const-constraint",
                    SEV_ERROR,
                    f"constraint[{index}]",
                    "constraint is constant false (every property becomes "
                    "vacuously safe)",
                    "drop the constraint or fix the term that folded",
                )
            else:
                report.add(
                    "model.const-constraint",
                    SEV_INFO,
                    f"constraint[{index}]",
                    "constraint is constant true (has no effect)",
                    "",
                )

    if not ts.properties:
        report.add(
            "model.no-property",
            SEV_WARNING,
            f"system {ts.name}",
            "no properties defined; nothing to verify",
            "call ts.add_property()",
        )

    # -------------------------------------------------- inputs and dead logic
    constrained: set[str] = set()
    for constraint in ts.constraints:
        constrained |= {v.name or "" for v in free_variables(constraint)}
    for prop_name, prop in ts.properties.items():
        free_inputs = sorted(
            v.name or ""
            for v in free_variables(prop)
            if v.name in input_names and v.name not in constrained
        )
        if free_inputs:
            report.add(
                "model.free-input-in-property",
                SEV_WARNING,
                f"property {prop_name}",
                f"unconstrained inputs feed the property directly: {free_inputs}",
                "constrain them or make the property robust to any value",
            )

    # COI-based and evaluation-based rules need a structurally sound system.
    if not structurally_broken and ts.properties:
        live: set[str] = set()
        for prop_name in ts.properties:
            live.update(cached_property_cone(ts, prop_name).kept_states)
        for state in ts.states:
            if state.name not in live:
                report.add(
                    "model.dead-latch",
                    SEV_WARNING,
                    f"state {state.name}",
                    "latch is outside the cone of influence of every property",
                    "drop it, or add the property that should observe it",
                )

    if not structurally_broken:
        # One cached abstract-reachability analysis per design backs every
        # semantic rule below; BMC folding and PDR seeding reuse it too.
        try:
            analysis: "Analysis | None" = analyze(ts)
        except AbsintError:
            analysis = None  # non-convergence backstop: fall back below

        if analysis is not None:
            seq_const = dict(analysis.seq_const)
        else:
            seq_const = {
                name: states[name].init.const_value()
                for name in _sequentially_constant(ts, states)
            }
        for name in sorted(seq_const):
            report.add(
                "model.seq-const-latch",
                SEV_WARNING,
                f"state {name}",
                f"latch is stuck at its initial value "
                f"{seq_const[name]:#x} in every reachable state",
                "replace it with a constant, or fix the update condition",
            )

        if analysis is not None:
            for state in ts.states:
                value = analysis.latches[state.name]
                if value.is_bottom or value.is_const or value.known == 0:
                    continue
                stuck = value.width - value.unknown_count
                pattern = "".join(
                    str((value.bits >> i) & 1) if (value.known >> i) & 1 else "x"
                    for i in reversed(range(value.width))
                )
                report.add(
                    "model.bit-stuck-latch",
                    SEV_INFO,
                    f"state {state.name}",
                    f"{stuck} of {value.width} bits are stuck in every "
                    f"reachable state (msb-first pattern {pattern})",
                    "shrink the latch, or fix the update logic if the "
                    "stuck bits were meant to move",
                )

            for prop_name, prop in ts.properties.items():
                abstract = analysis.properties.get(prop_name)
                if (
                    abstract is not None
                    and abstract.is_const
                    and abstract.const_value() == 1
                    and not prop.is_const
                ):
                    report.add(
                        "model.unreachable-property-violation",
                        SEV_INFO,
                        f"property {prop_name}",
                        "abstract reachability proves no reachable state "
                        "violates this property",
                        "",
                    )

            for where, summary in _nonwrapping_arith(ts, analysis):
                report.add(
                    "model.interval-overflow-impossible",
                    SEV_INFO,
                    where,
                    "arithmetic provably never wraps at its width "
                    f"({summary})",
                    "",
                )

    return report


def _cycles(graph: dict[str, set[str]]) -> list[tuple[str, ...]]:
    """Elementary cycles of the (small) init-reference graph, one per SCC."""
    cycles: list[tuple[str, ...]] = []
    visited: set[str] = set()
    for start in sorted(graph):
        if start in visited:
            continue
        # Iterative DFS keeping the current path; good enough for the
        # handful of init references a real model can contain.
        stack: list[tuple[str, list[str]]] = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for succ in sorted(graph.get(node, ())):
                if succ == start and len(path) >= 1:
                    cycles.append(tuple(path))
                    visited.update(path)
                elif succ in graph and succ not in path:
                    stack.append((succ, path + [succ]))
        visited.add(start)
    return cycles


_ARITH_OPS = {T.OP_ADD: "add", T.OP_SUB: "sub", T.OP_MUL: "mul"}


def _dag_nodes(term: BV, seen: set):
    """Every distinct node of ``term``'s DAG (any order)."""
    if term.tid in seen:
        return
    seen.add(term.tid)
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        for arg in node.args:
            if arg.tid not in seen:
                seen.add(arg.tid)
                stack.append(arg)


def _wraps(op, a: "D.AbstractValue", b: "D.AbstractValue") -> bool:
    """Can this add/sub/mul wrap for operands inside the abstract boxes?"""
    m = mask(a.width)
    if op == T.OP_ADD:
        return a.hi + b.hi > m
    if op == T.OP_SUB:
        return a.lo < b.hi
    return a.hi * b.hi > m  # OP_MUL


def _nonwrapping_arith(
    ts: TransitionSystem, analysis: "Analysis"
) -> list[tuple[str, str]]:
    """Locations whose add/sub/mul nodes provably cannot wrap.

    Only non-trivial facts are reported: the no-wrap condition must fail
    for unconstrained (top) operands, so every finding reflects knowledge
    the fixpoint actually derived rather than a width truism (a 1-bit
    multiply, say, can never overflow).  Nodes shared between locations
    are attributed to the first location that walks them.
    """
    env = analysis.env()
    cache: dict[int, D.AbstractValue] = {}
    roots: list[tuple[str, BV]] = []
    for state in ts.states:
        if state.next is not None:
            roots.append((f"state {state.name} (next)", state.next))
    for prop_name, prop in ts.properties.items():
        roots.append((f"property {prop_name}", prop))

    locations: list[tuple[str, str]] = []
    walked: set[int] = set()
    for where, term in roots:
        try:
            abstract_eval(term, env, cache)
        except AbsintError:
            continue
        counts: dict[str, int] = {}
        for node in _dag_nodes(term, walked):
            opname = _ARITH_OPS.get(node.op)
            if opname is None:
                continue
            a = cache.get(node.args[0].tid)
            b = cache.get(node.args[1].tid)
            if a is None or b is None or a.is_bottom or b.is_bottom:
                continue
            trivial = not _wraps(node.op, D.top(a.width), D.top(b.width))
            if not trivial and not _wraps(node.op, a, b):
                counts[opname] = counts.get(opname, 0) + 1
        if counts:
            summary = ", ".join(
                f"{count} {op}" for op, count in sorted(counts.items())
            )
            locations.append((where, summary))
    return locations


def _sequentially_constant(
    ts: TransitionSystem, states: dict
) -> set[str]:
    """Latches provably stuck at a constant initial value.

    Greatest fixpoint: start from every latch with a constant init, then
    repeatedly discard any candidate whose next-state term does not fold to
    its initial value once all remaining candidates are substituted by
    their constants.  Inputs and non-candidate latches stay symbolic, so
    survival means the latch holds its value under *every* environment.
    """
    candidates: dict[str, int] = {
        name: s.init.const_value()
        for name, s in states.items()
        if s.init is not None and s.init.is_const and s.next is not None
    }
    while candidates:
        mapping = {
            states[name].symbol: T.bv_const(value, states[name].width)
            for name, value in candidates.items()
        }
        stuck: list[str] = []
        for name, value in candidates.items():
            folded = substitute(states[name].next, mapping)
            if not (folded.is_const and folded.const_value() == value):
                stuck.append(name)
        if not stuck:
            break
        for name in stuck:
            del candidates[name]
    return set(candidates)

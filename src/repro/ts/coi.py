"""Cone-of-influence reduction of transition systems.

Before unrolling, a BMC (or PDR) run for one property only needs
the state variables and inputs that can actually influence that property or
any global constraint.  The closure is computed at the word level: seed
with the free variables of the property and of every constraint, then add,
for each reached state variable, the free variables of its ``next`` (and
``init``) functions, until a fixpoint.

Everything outside the cone is dropped from the reduced system:

* dropped *state variables* — their init/next terms are never instantiated,
  so none of their (potentially deep) logic gets unrolled or encoded;
* dropped *inputs* — only ever read by dropped next-state functions (the
  closure guarantees this), so no fresh per-frame symbols are created.

Constraints are always kept (dropping an assumption could introduce
spurious counterexamples), which is why their variables join the seed set.
Verdict equivalence is preserved: the encoded formula over the reduced
system is the projection of the original onto the cone, and the dropped
state variables are functionally determined by (and never feed back into)
the cone, so satisfiability is unchanged frame by frame.

A counterexample found on the reduced system is reported on the original
one: the trace builder simulates the original system
(:mod:`repro.ts.simulate`), where dropped inputs and the free initial
values of dropped states read 0 (they are unconstrained, so any value is
consistent).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.errors import TransitionSystemError
from repro.smt.evaluator import free_variables
from repro.ts.system import TransitionSystem


@dataclass
class CoiReduction:
    """Outcome of a cone-of-influence reduction for one property."""

    ts: TransitionSystem
    original: TransitionSystem
    property_name: str
    kept_states: list[str] = field(default_factory=list)
    dropped_states: list[str] = field(default_factory=list)
    kept_inputs: list[str] = field(default_factory=list)
    dropped_inputs: list[str] = field(default_factory=list)

    @property
    def dropped_state_bits(self) -> int:
        original_states = {s.name: s for s in self.original.states}
        return sum(original_states[name].width for name in self.dropped_states)

    @property
    def reduced(self) -> bool:
        return bool(self.dropped_states or self.dropped_inputs)


# One cone per (system, property), shared by the lint rules, the BMC
# session and the analysis layers so repeated runs over the same design
# (e.g. ``--design all --zoo-sample 20``) never re-derive identical cones.
# Systems are mutable builders, so entries carry a term-id fingerprint and
# are recomputed whenever the system's structure changes.
_CONE_CACHE: "weakref.WeakKeyDictionary[TransitionSystem, dict[str, tuple[tuple, CoiReduction]]]"
_CONE_CACHE = weakref.WeakKeyDictionary()


def cached_property_cone(ts: TransitionSystem, property_name: str) -> CoiReduction:
    """Memoised :func:`reduce_to_property_cone` for unchanged systems."""
    fingerprint = ts.fingerprint()
    per_prop = _CONE_CACHE.setdefault(ts, {})
    cached = per_prop.get(property_name)
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    reduction = reduce_to_property_cone(ts, property_name)
    per_prop[property_name] = (fingerprint, reduction)
    return reduction


def reduce_to_property_cone(
    ts: TransitionSystem, property_name: str
) -> CoiReduction:
    """Build the reduced system for ``property_name`` (validated input)."""
    if property_name not in ts.properties:
        raise TransitionSystemError(f"unknown property {property_name!r}")
    ts.validate()

    states = {s.name: s for s in ts.states}
    input_names = {symbol.name for symbol in ts.inputs}

    # Seed: property + every constraint (constraints must be kept whole).
    seeds = [ts.properties[property_name]]
    seeds.extend(ts.constraints)
    cone: set[str] = set()
    work: list[str] = []
    for term in seeds:
        for var in free_variables(term):
            name = var.name or ""
            if name not in cone and (name in states or name in input_names):
                cone.add(name)
                work.append(name)
    while work:
        name = work.pop()
        state = states.get(name)
        if state is None:
            continue  # inputs have no dependencies
        deps = set(free_variables(state.next))  # validated: next is not None
        if state.init is not None:
            deps |= free_variables(state.init)
        for var in deps:
            dep_name = var.name or ""
            if dep_name not in cone and (
                dep_name in states or dep_name in input_names
            ):
                cone.add(dep_name)
                work.append(dep_name)

    kept_states = [s.name for s in ts.states if s.name in cone]
    dropped_states = [s.name for s in ts.states if s.name not in cone]
    kept_inputs = [i.name for i in ts.inputs if i.name in cone]
    dropped_inputs = [i.name for i in ts.inputs if i.name not in cone]

    if not dropped_states and not dropped_inputs:
        return CoiReduction(
            ts=ts,
            original=ts,
            property_name=property_name,
            kept_states=kept_states,
            kept_inputs=kept_inputs,
        )

    # Symbols are hash-consed by name, so re-declaring them in the reduced
    # system returns the very same terms and the original init/next/property
    # terms remain valid as-is.
    reduced = TransitionSystem(name=f"{ts.name}#coi[{property_name}]")
    for state in ts.states:
        if state.name not in cone:
            continue
        reduced.add_state(state.name, state.width)
        if state.init is not None:
            reduced.set_init(state.name, state.init)
        reduced.set_next(state.name, state.next)
    for symbol in ts.inputs:
        if symbol.name in cone:
            reduced.add_input(symbol.name, symbol.width)
    for constraint in ts.constraints:
        reduced.add_constraint(constraint)
    reduced.add_property(property_name, ts.properties[property_name])
    return CoiReduction(
        ts=reduced,
        original=ts,
        property_name=property_name,
        kept_states=kept_states,
        dropped_states=dropped_states,
        kept_inputs=kept_inputs,
        dropped_inputs=dropped_inputs,
    )

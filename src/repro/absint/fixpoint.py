"""Reachable-state fixpoint over a transition system.

:func:`analyze` computes, per latch, an :class:`AbstractValue` that
over-approximates every value the latch takes in any reachable state
(under *unconstrained* inputs — global constraints are deliberately
ignored, which only widens the result and keeps plain random simulation a
valid soundness oracle).  The iteration is a standard worklist least
fixpoint from the abstract initial state, with delayed interval widening
so counter-like latches converge in a bounded number of steps, followed
by a greatest-fixpoint constancy pass (the algorithm behind lint's
original ``seq-const-latch`` rule) so the engine-backed rule is never
weaker than the syntactic one it replaces.

Results are cached per ``TransitionSystem`` identity and invalidated by a
term-id fingerprint, so lint rules, the encoder, PDR seeding and the BMC
strengthening pass all share one analysis per design.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from collections import deque

from repro.absint import domains as D
from repro.absint.domains import AbstractValue
from repro.absint.transfer import TransitionEvaluator, abstract_eval
from repro.errors import AbsintError
from repro.smt import terms as T
from repro.smt.evaluator import substitute
from repro.ts.system import TransitionSystem

#: Number of joins a latch absorbs before interval widening kicks in.
WIDEN_DELAY = 8


@dataclass
class Analysis:
    """The fixpoint result for one transition system."""

    #: Per-latch over-approximation of every reachable value.
    latches: dict[str, AbstractValue]
    #: Inputs are unconstrained: always top, kept for environment building.
    inputs: dict[str, AbstractValue]
    #: Abstract value of each property term in the final environment
    #: (const 1 means the property provably holds in the abstraction).
    properties: dict[str, AbstractValue]
    #: Latches proven stuck at one concrete value, with that value.
    seq_const: dict[str, int] = field(default_factory=dict)
    iterations: int = 0
    widenings: int = 0

    def env(self) -> dict[str, AbstractValue]:
        """The variable environment for :func:`abstract_eval` calls."""
        return {**self.inputs, **self.latches}

    def value_of(self, name: str) -> AbstractValue:
        if name in self.latches:
            return self.latches[name]
        if name in self.inputs:
            return self.inputs[name]
        raise AbsintError(f"unknown symbol {name!r} in analysis")

    def fact_count(self) -> int:
        """Number of latches with a non-trivial (non-top) abstraction."""
        return sum(1 for v in self.latches.values() if not v.is_top)

    def known_bit_count(self) -> int:
        """Total proven-constant latch bits across the design."""
        return sum(
            v.width - v.unknown_count
            for v in self.latches.values()
            if not v.is_bottom
        )


# Cache one analysis per TransitionSystem object, invalidated whenever the
# system's term structure changes (systems are mutable builders).
_CACHE: "weakref.WeakKeyDictionary[TransitionSystem, tuple[tuple, Analysis]]"
_CACHE = weakref.WeakKeyDictionary()


def analyze(ts: TransitionSystem) -> Analysis:
    """The (cached) abstract reachability analysis of ``ts``."""
    fingerprint = ts.fingerprint()
    cached = _CACHE.get(ts)
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    analysis = _run(ts)
    _CACHE[ts] = (fingerprint, analysis)
    return analysis


def _run(ts: TransitionSystem) -> Analysis:
    state_names = {s.name for s in ts.states}
    env: dict[str, AbstractValue] = {
        inp.name: D.top(inp.width) for inp in ts.inputs
    }
    # One evaluator for the whole run: it caches values under ``env`` (and
    # the free variables of every node) until a latch update invalidates
    # what read that latch.
    evaluator = TransitionEvaluator(env, state_names)
    # Terms may reference auxiliary free variables that were never declared
    # (e.g. fresh nondeterministic-init symbols introduced by the QED
    # transform).  They are unconstrained, so top is their exact value.
    all_terms = list(ts.constraints) + list(ts.properties.values())
    for s in ts.states:
        all_terms.extend(t for t in (s.init, s.next) if t is not None)
    for term in all_terms:
        evaluator.free_names(term)
    for name, var in evaluator.variables.items():
        if name not in state_names and name not in env:
            env[name] = D.top(var.width)
    inputs = dict(env)

    # Abstract initial state.  Init terms may reference other symbols (the
    # lint init-cycle rule polices abuse); evaluating them under an all-top
    # state environment stays sound because top includes whatever those
    # symbols actually hold at reset.
    init_env = dict(env)
    for s in ts.states:
        init_env[s.name] = D.top(s.width)
    init_cache: dict[int, AbstractValue] = {}
    for s in ts.states:
        if s.next is None or s.init is None:
            # A latch without a next function is input-like after frame 0;
            # only top covers it.  Without an init, frame 0 is free too.
            env[s.name] = D.top(s.width)
        else:
            env[s.name] = abstract_eval(s.init, init_env, init_cache)

    # Who must be revisited when a latch's value grows, in state order so
    # the worklist order (and ``iterations``) does not depend on hashing.
    dependents: dict[str, dict[str, None]] = {s.name: {} for s in ts.states}
    transition: dict[str, T.BV] = {}
    for s in ts.states:
        if s.next is None:
            continue
        transition[s.name] = s.next
        for name in evaluator.free_names(s.next):
            if name in state_names:
                dependents[name][s.name] = None

    worklist = deque(sorted(transition))
    queued = set(worklist)
    updates: dict[str, int] = {name: 0 for name in transition}
    iterations = 0
    widenings = 0
    # Backstop only: each component's chain height is linear in the width,
    # and widening bounds the interval changes by a constant.
    caps = {
        name: WIDEN_DELAY + 4 * ts.state_symbol(name).width + 16
        for name in transition
    }

    while worklist:
        iterations += 1
        name = worklist.popleft()
        queued.discard(name)
        current = env[name]
        stepped = evaluator.step(transition[name])
        joined = D.join(current, stepped)
        if joined == current:
            continue
        updates[name] += 1
        if updates[name] > WIDEN_DELAY:
            joined = D.widen(current, joined)
            widenings += 1
            if joined == current:
                continue
        if updates[name] > caps[name]:
            raise AbsintError(
                f"fixpoint for latch {name!r} failed to converge after "
                f"{updates[name]} updates"
            )
        evaluator.set(name, joined)
        for dep in dependents[name]:
            if dep not in queued:
                worklist.append(dep)
                queued.add(dep)

    latches = {s.name: env[s.name] for s in ts.states}
    _constancy_pass(ts, latches)
    for name, value in latches.items():
        if value != env[name]:
            evaluator.set(name, value)
    properties = {
        name: evaluator.value(term) for name, term in ts.properties.items()
    }
    seq_const = {
        name: value.const_value()
        for name, value in latches.items()
        if value.is_const
    }
    return Analysis(
        latches=latches,
        inputs=inputs,
        properties=properties,
        seq_const=seq_const,
        iterations=iterations,
        widenings=widenings,
    )


def _constancy_pass(ts: TransitionSystem, latches: dict[str, AbstractValue]) -> None:
    """Greatest-fixpoint constancy refinement, in place.

    Assume every const-init latch is stuck at its init simultaneously and
    discard assumptions whose next-state term does not fold back to the
    assumed value; the surviving set is a genuine invariant.  This is the
    original lint ``seq-const-latch`` algorithm, so the engine-backed rule
    subsumes it by construction — it catches mutually-dependent stuck
    latches the forward iteration can lose to input joins.
    """
    # Already-proven constants participate as substitution base.
    base: dict[str, int] = {
        name: value.const_value()
        for name, value in latches.items()
        if value.is_const
    }
    next_terms = {s.name: s.next for s in ts.states if s.next is not None}
    candidates: dict[str, int] = {}
    for s in ts.states:
        if s.name in base or s.next is None:
            continue
        if s.init is not None and s.init.is_const:
            candidates[s.name] = s.init.const_value()
    while candidates:
        mapping = {
            ts.state_symbol(name): T.bv_const(value, ts.state_symbol(name).width)
            for name, value in {**base, **candidates}.items()
        }
        cache: dict[int, T.BV] = {}
        dropped = []
        for name, value in candidates.items():
            folded = substitute(next_terms[name], mapping, cache)
            if not (folded.is_const and folded.const_value() == value):
                dropped.append(name)
        if not dropped:
            break
        for name in dropped:
            del candidates[name]
    for name, value in candidates.items():
        latches[name] = D.const(ts.state_symbol(name).width, value)

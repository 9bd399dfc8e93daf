"""Exporting fixpoint facts to the solvers: cubes, folds, oracles.

Three consumers, three shapes:

* :func:`pdr_seed_cubes` — single-literal blocked cubes (one per proven
  latch bit) offered to ``PdrEngine(seed_lemmas=...)``, which re-checks
  consecution before admitting any of them;
* :func:`fold_system` — a rewritten :class:`TransitionSystem` with
  proven-constant latches removed and partially-known latches narrowed to
  their unknown bits (BMC reports its traces by simulating the original
  system);
* :func:`validate_by_simulation` — the independent soundness oracle:
  every fact must subsume bounded random concrete runs, stepped by
  :mod:`repro.ts.simulate`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.absint.domains import AbstractValue
from repro.absint.fixpoint import Analysis
from repro.errors import AbsintError
from repro.smt import terms as T
from repro.smt.evaluator import evaluate, substitute
from repro.smt.terms import BV
from repro.ts.simulate import initial_state, next_state, rigid_symbols
from repro.ts.system import TransitionSystem


@dataclass(frozen=True)
class LatchFact:
    """One latch's non-trivial reachable-value abstraction."""

    name: str
    width: int
    value: AbstractValue

    def describe(self) -> str:
        return f"{self.name}: {self.value.describe()}"


def latch_facts(ts: TransitionSystem, analysis: Analysis) -> list[LatchFact]:
    """Facts for every latch whose abstraction is not top."""
    facts = []
    for s in ts.states:
        value = analysis.latches[s.name]
        if not value.is_top and not value.is_bottom:
            facts.append(LatchFact(name=s.name, width=s.width, value=value))
    return facts


def pdr_seed_cubes(
    ts: TransitionSystem, analysis: Analysis
) -> list[tuple[tuple[str, int, bool], ...]]:
    """Single-literal blocked-cube candidates, one per proven latch bit.

    A latch bit known to be ``v`` in every reachable state means the cube
    ``(bit == not v)`` is unreachable — exactly what PDR's frame-∞ blocks.
    These are *candidates*: the engine still consecution-checks them, so a
    bug here can cost completeness, never soundness.
    """
    cubes: list[tuple[tuple[str, int, bool], ...]] = []
    for fact in latch_facts(ts, analysis):
        v = fact.value
        for i in range(fact.width):
            if (v.known >> i) & 1:
                bad = not bool((v.bits >> i) & 1)
                cubes.append(((fact.name, i, bad),))
    return cubes


# ---------------------------------------------------------------------------
# pre-encoding fold
# ---------------------------------------------------------------------------


@dataclass
class AbsintFold:
    """A folded system and how much it folded."""

    ts: TransitionSystem
    #: Latches removed entirely (proven constant).
    states_folded: int = 0
    #: Proven-constant bits eliminated (includes removed latches' bits).
    bits_folded: int = 0


def _narrowed_name(name: str, value: AbstractValue) -> str:
    return f"{name}!ai{value.known:x}"


def _unknown_positions(value: AbstractValue) -> list[int]:
    return [i for i in range(value.width) if not (value.known >> i) & 1]


def _assemble(value: AbstractValue, narrow: BV) -> BV:
    """The original-width term rebuilding a latch from its unknown bits."""
    w = value.width
    expr = T.bv_const(value.bits, w)
    for j, pos in enumerate(_unknown_positions(value)):
        bit = T.bv_extract(narrow, j, j)
        expr = T.bv_or(expr, T.bv_shl(T.bv_zext(bit, w), T.bv_const(pos, w)))
    return expr


def _compress(term: BV, positions: list[int]) -> BV:
    """Extract ``positions`` (ascending) of ``term`` into one narrow word."""
    expr = T.bv_extract(term, positions[0], positions[0])
    for pos in positions[1:]:
        expr = T.bv_concat(T.bv_extract(term, pos, pos), expr)
    return expr


def fold_system(ts: TransitionSystem, analysis: Analysis) -> AbsintFold | None:
    """Fold proven-constant latches and bits out of ``ts``.

    Returns ``None`` when the analysis proves nothing foldable.  The fold
    preserves the reachable behaviour projected onto the surviving bits
    (facts are invariants, so fixing a proven bit is frame-wise
    equisatisfiable), hence verdicts and counterexample frames are
    unchanged — which the differential tests and benchmark gate on.
    """
    const_latches: dict[str, AbstractValue] = {}
    narrowed: dict[str, AbstractValue] = {}
    for s in ts.states:
        value = analysis.latches[s.name]
        if value.is_bottom:
            continue
        if value.is_const and s.init is not None:
            const_latches[s.name] = value
        elif 0 < value.width - value.unknown_count and not value.is_const:
            if s.init is not None:
                narrowed[s.name] = value
    if not const_latches and not narrowed:
        return None

    folded = TransitionSystem(name=f"{ts.name}!absint")
    for inp in ts.inputs:
        folded.add_input(inp.name, inp.width)

    # Replacement terms for every folded latch symbol.
    replacement: dict[BV, BV] = {}
    narrow_symbols: dict[str, BV] = {}
    for s in ts.states:
        if s.name in const_latches:
            value = const_latches[s.name]
            replacement[s.symbol] = T.bv_const(value.const_value(), s.width)
        elif s.name in narrowed:
            value = narrowed[s.name]
            narrow = folded.add_state(
                _narrowed_name(s.name, value), value.unknown_count
            )
            narrow_symbols[s.name] = narrow
            replacement[s.symbol] = _assemble(value, narrow)
        else:
            folded.add_state(s.name, s.width)

    def rewrite(term: BV) -> BV:
        return substitute(term, replacement) if replacement else term

    for s in ts.states:
        if s.name in const_latches:
            continue
        if s.name in narrowed:
            positions = _unknown_positions(narrowed[s.name])
            target = narrow_symbols[s.name]
            if s.init is not None:
                folded.set_init(target, _compress(rewrite(s.init), positions))
            if s.next is not None:
                folded.set_next(target, _compress(rewrite(s.next), positions))
        else:
            if s.init is not None:
                folded.set_init(s.name, rewrite(s.init))
            if s.next is not None:
                folded.set_next(s.name, rewrite(s.next))

    for constraint in ts.constraints:
        folded.add_constraint(rewrite(constraint))
    for name, term in ts.properties.items():
        folded.add_property(name, rewrite(term))

    bits = sum(v.width for v in const_latches.values())
    bits += sum(v.width - v.unknown_count for v in narrowed.values())
    return AbsintFold(
        ts=folded,
        states_folded=len(const_latches),
        bits_folded=bits,
    )


# ---------------------------------------------------------------------------
# simulation oracle
# ---------------------------------------------------------------------------


def validate_by_simulation(
    ts: TransitionSystem,
    analysis: Analysis,
    *,
    runs: int = 32,
    steps: int = 12,
    seed: int = 0,
) -> int:
    """Cross-check every fact against bounded random concrete simulation.

    Drives ``runs`` random executions for ``steps`` cycles each (random
    inputs every cycle, random values for the rigid symbols and for
    latches without an init term) and
    checks that each latch's abstract value contains its concrete value
    and that abstractly-decided properties match their concrete
    evaluation.  Returns the number of containment checks performed;
    raises :class:`AbsintError` on the first violation — a violation is
    an engine soundness bug, never a property of the design.
    """
    rng = random.Random(seed)
    checks = 0
    rigid = rigid_symbols(ts)
    for _ in range(runs):
        # Rigid symbols keep one random value per run.
        env = {name: rng.getrandbits(width) for name, width in rigid.items()}
        free = {
            s.name: rng.getrandbits(s.width) for s in ts.states if s.init is None
        }
        states = initial_state(ts, env, free)
        for step in range(steps):
            frame = {**env, **states}
            for inp in ts.inputs:
                frame[inp.name] = rng.getrandbits(inp.width)
            for s in ts.states:
                value = analysis.latches[s.name]
                if not value.contains(states[s.name]):
                    raise AbsintError(
                        f"soundness violation: latch {s.name!r} = "
                        f"{states[s.name]:#x} at step {step} escapes "
                        f"{value.describe()}"
                    )
                checks += 1
            for pname, term in ts.properties.items():
                abstract = analysis.properties[pname]
                if abstract.is_const:
                    if evaluate(term, frame) != abstract.const_value():
                        raise AbsintError(
                            f"soundness violation: property {pname!r} "
                            f"disagrees with abstract value "
                            f"{abstract.describe()} at step {step}"
                        )
                    checks += 1
            # A latch without a next function is input-like.
            states = {
                s.name: rng.getrandbits(s.width) for s in ts.states if s.next is None
            }
            states.update(next_state(ts, frame))
    return checks

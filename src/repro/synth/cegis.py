"""The core counterexample-guided inductive synthesis (CEGIS) loop.

Given a specification and one multiset of components, the engine alternates
between two SMT queries (Section 2.2):

1. *finite synthesis* — find location / attribute assignments that satisfy
   the specification on every counterexample collected so far,
2. *verification* — check whether the decoded candidate program matches the
   specification for **all** inputs; if not, the distinguishing input joins
   the counterexample set.

The loop ends with a verified :class:`SynthesizedProgram`, with ``None``
when the multiset cannot realise the specification (finite synthesis becomes
UNSAT), or with ``None`` when the iteration budget is exhausted.

Both phases keep a persistent :class:`~repro.solve.context.SolverContext`
for the whole loop.  The synthesis context receives each counterexample's
constraints *incrementally*, so the well-formedness encoding is blasted
once and the learned clauses of iteration ``i`` prune the search of
iteration ``i + 1``.  The verification context re-checks a changing
candidate against a fixed specification, so each candidate's disagreement
constraint lives in a push/pop scope while the specification's encoding and
the solver state persist.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.smt import terms as T
from repro.solve.context import SolverContext
from repro.synth.components import Component
from repro.synth.encoder import LocationEncoder
from repro.synth.program import SynthesizedProgram
from repro.synth.spec import SynthesisSpec
from repro.utils.bitops import mask


#: Counterexamples the loop starts from, taken from the corner values 0/1.
INITIAL_EXAMPLES = 2


@dataclass
class CegisConfig:
    """Tunable knobs of the CEGIS loop."""

    max_iterations: int = 16


@dataclass
class CegisStats:
    """Work counters for one CEGIS invocation."""

    iterations: int = 0
    synthesis_queries: int = 0
    verification_queries: int = 0


@dataclass
class CegisOutcome:
    """Result of one CEGIS invocation on one multiset."""

    program: Optional[SynthesizedProgram]
    stats: CegisStats = field(default_factory=CegisStats)

    @property
    def succeeded(self) -> bool:
        return self.program is not None


class CegisEngine:
    """Runs the two-phase CEGIS loop for a (spec, multiset) pair."""

    def __init__(self, config: CegisConfig | None = None):
        self.config = config or CegisConfig()

    # ----------------------------------------------------------------- public

    def synthesize(
        self, spec: SynthesisSpec, components: Sequence[Component]
    ) -> CegisOutcome:
        """Synthesize a program over ``components`` equivalent to ``spec``."""
        stats = CegisStats()
        encoder = LocationEncoder(spec, components)

        synth_terms: list[T.BV] = list(encoder.wfp_constraints())
        for example in self._seed_examples(spec):
            synth_terms.extend(encoder.example_constraints(example))
        synth_ctx = SolverContext()
        synth_ctx.add_all(synth_terms)
        verify_ctx = SolverContext()
        verify_inputs = spec.fresh_input_terms(prefix="verify")
        spec_term = spec.output_term(verify_inputs)

        for _ in range(self.config.max_iterations):
            stats.iterations += 1
            stats.synthesis_queries += 1
            result = synth_ctx.check()
            if not result.satisfiable:
                break
            candidate = encoder.decode(result)
            stats.verification_queries += 1
            counterexample = self._check_candidate(
                verify_ctx, verify_inputs, spec_term, candidate
            )
            if counterexample is None:
                return CegisOutcome(program=candidate, stats=stats)
            synth_ctx.add_all(encoder.example_constraints(counterexample))
        return CegisOutcome(program=None, stats=stats)

    def _check_candidate(
        self,
        ctx: SolverContext,
        input_terms: Sequence[T.BV],
        spec_term: T.BV,
        program: SynthesizedProgram,
    ) -> Optional[list[int]]:
        """Verify one candidate in a retractable scope of ``ctx``."""
        ctx.push()
        try:
            ctx.add(T.bv_ne(spec_term, program.output_term(input_terms)))
            result = ctx.check()
        finally:
            ctx.pop()
        if not result.satisfiable:
            return None
        return [result.value_of(term) for term in input_terms]

    def find_counterexample(
        self, spec: SynthesisSpec, program: SynthesizedProgram
    ) -> Optional[list[int]]:
        """Return inputs where ``program`` disagrees with ``spec`` (or ``None``)."""
        input_terms = spec.fresh_input_terms(prefix="verify")
        spec_term = spec.output_term(input_terms)
        return self._check_candidate(SolverContext(), input_terms, spec_term, program)

    # ---------------------------------------------------------------- helpers

    def _seed_examples(self, spec: SynthesisSpec) -> list[list[int]]:
        """Initial counterexamples: fixed corner values, no SMT query needed."""
        corner_values = [0, 1]
        seeds: list[list[int]] = []
        for combo in itertools.islice(
            itertools.product(corner_values, repeat=spec.arity),
            INITIAL_EXAMPLES,
        ):
            seeds.append(
                [value & mask(inp.width) for value, inp in zip(combo, spec.inputs)]
            )
        return seeds

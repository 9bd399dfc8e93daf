"""Word-level abstract interpretation over transition systems.

A lightweight static reachability analysis in the ternary-simulation
tradition of hardware model checkers: per latch, a reduced product of
known-bits, constancy and interval domains over-approximates every
reachable value.  The facts power three layers — lint rules, pre-encoding
folding in the BMC pipeline (``PipelineConfig.absint``) and PDR frame-∞
seed lemmas (consecution-checked on admission) — and every fact is
cross-checked against bounded random simulation.
"""

from repro.absint.domains import AbstractValue
from repro.absint.facts import (
    AbsintFold,
    LatchFact,
    fold_system,
    latch_facts,
    pdr_seed_cubes,
    validate_by_simulation,
)
from repro.absint.fixpoint import Analysis, analyze

__all__ = [
    "AbstractValue",
    "AbsintFold",
    "Analysis",
    "LatchFact",
    "analyze",
    "fold_system",
    "latch_facts",
    "pdr_seed_cubes",
    "validate_by_simulation",
]

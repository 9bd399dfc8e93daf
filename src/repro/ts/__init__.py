"""Symbolic transition systems (the BTOR2-level view of a design).

A :class:`TransitionSystem` is the word-level equivalent of what Yosys emits
for Pono in the paper's flow: state variables with init/next functions,
free inputs, global constraints (assumptions) and safety properties.
The :class:`Unroller` unrolls a system for every model-checking engine,
and :mod:`repro.ts.simulate` runs it concretely.
"""

from repro.ts.coi import CoiReduction, reduce_to_property_cone
from repro.ts.simulate import initial_state, next_state, rigid_symbols
from repro.ts.system import StateVar, TransitionSystem
from repro.ts.unroll import Unroller

__all__ = [
    "CoiReduction",
    "StateVar",
    "TransitionSystem",
    "Unroller",
    "initial_state",
    "next_state",
    "reduce_to_property_cone",
    "rigid_symbols",
]

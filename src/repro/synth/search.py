"""Shared result types and multiset enumeration for the CEGIS algorithms.

The two algorithms compared in Figure 3 (iterative, HPF) differ only in
*which* component subsets they hand to the core CEGIS engine and in *what
order*; the bookkeeping they report is identical and lives here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import SynthesisError
from repro.synth.components import Component, ComponentLibrary
from repro.synth.program import SynthesizedProgram


@dataclass
class SynthesisRun:
    """Outcome of synthesizing equivalent programs for one original instruction."""

    spec_name: str
    programs: list[SynthesizedProgram] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Multisets handed to CEGIS, one call each.
    multisets_tried: int = 0

    @property
    def succeeded(self) -> bool:
        return bool(self.programs)

    def best_program(self) -> SynthesizedProgram:
        """The shortest synthesized program (ties broken by discovery order)."""
        if not self.programs:
            raise ValueError(f"no programs synthesized for {self.spec_name}")
        return min(self.programs, key=lambda p: p.num_instructions)


def check_multiset_budget(multiset_size: int, max_multisets: Optional[int]) -> None:
    """Reject a multiset size below 1 or a negative cap on the multisets tried.

    ``max_multisets=None`` means no cap.  Checked by every multiset search
    so that Figure 3 never compares the algorithms on unequal budgets.
    """
    if multiset_size < 1:
        raise SynthesisError(f"multiset_size must be at least 1, got {multiset_size}")
    if max_multisets is not None and max_multisets < 0:
        raise SynthesisError(
            f"max_multisets must be non-negative or None, got {max_multisets}"
        )


def enumerate_multisets(
    library: ComponentLibrary | Sequence[Component], size: int
) -> list[tuple[Component, ...]]:
    """All multisets of ``size`` components (combinations with replacement).

    This is the same enumeration the iterative CEGIS baseline uses; for a
    library of N components there are C(N + size - 1, size) multisets, which
    is why HPF's prioritisation matters.
    """
    components = list(library)
    return list(itertools.combinations_with_replacement(components, size))


def count_multisets(library_size: int, size: int) -> int:
    """Number of multisets without enumerating them (N multichoose k)."""
    import math

    return math.comb(library_size + size - 1, size)

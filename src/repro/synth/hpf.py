"""HPF-CEGIS: CEGIS based on the highest-priority-first policy (Algorithm 1).

This is the paper's synthesis contribution.  Every component ``j`` carries a
*choice weight* ``c_j`` and an *exclusion weight* ``e_j`` in a global
priority dictionary that persists across original instructions.  Before each
CEGIS attempt the remaining multisets are ranked by

    priority(S) = ( Σ_j (c_j − α·χ_j) ) / ( Σ_j e_j )

where χ_j is 1 when component ``j`` has the same name as the original
instruction ``g`` (penalising overlap between the data paths of the original
instruction and its equivalent program) and α is the influencing factor
(:data:`ALPHA`).  The highest-priority multiset is tried first; on success
the choice weights of its components are increased by :data:`INCREMENT`, on
failure their exclusion weights are.  Synthesis for an instruction stops
once ``k`` programs have been found or the multisets are exhausted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.synth.cegis import CegisConfig, CegisEngine
from repro.synth.components import Component, ComponentLibrary
from repro.synth.search import (
    SynthesisRun,
    check_multiset_budget,
    enumerate_multisets,
)
from repro.synth.spec import SynthesisSpec

#: The influencing factor α of the name-overlap penalty.
ALPHA = 1.0
#: The step by which a success or a failure raises a component's weight.
INCREMENT = 1.0


@dataclass
class PriorityDict:
    """Global choice / exclusion weights of every component (Algorithm 1, line 2)."""

    choice: dict[str, float]
    exclusion: dict[str, float]

    @classmethod
    def initial(cls, library: ComponentLibrary | Sequence[Component]) -> "PriorityDict":
        names = [component.name for component in library]
        return cls(
            choice={name: 1.0 for name in names},
            exclusion={name: 1.0 for name in names},
        )

    def priority(self, multiset: Sequence[Component], original_name: str) -> float:
        """Priority of a multiset for original instruction ``original_name``."""
        numerator = 0.0
        denominator = 0.0
        for component in multiset:
            chi = 1.0 if component.base_instruction == original_name else 0.0
            numerator += self.choice[component.name] - ALPHA * chi
            denominator += self.exclusion[component.name]
        return numerator / denominator if denominator else float("-inf")

    def reward(self, multiset: Sequence[Component]) -> None:
        """Increase the choice weights after a successful synthesis (line 16)."""
        for component in multiset:
            self.choice[component.name] += INCREMENT

    def penalise(self, multiset: Sequence[Component]) -> None:
        """Increase the exclusion weights after a failed synthesis (line 13)."""
        for component in multiset:
            self.exclusion[component.name] += INCREMENT


class HpfCegis:
    """Highest-priority-first CEGIS (the paper's Algorithm 1)."""

    name = "hpf"

    def __init__(
        self,
        library: ComponentLibrary,
        multiset_size: int = 3,
        target_programs: int = 3,
        cegis_config: CegisConfig | None = None,
        max_multisets: Optional[int] = None,
    ):
        check_multiset_budget(multiset_size, max_multisets)
        self.library = library
        self.multiset_size = multiset_size
        self.target_programs = target_programs
        self.engine = CegisEngine(cegis_config)
        self.max_multisets = max_multisets
        self.priorities = PriorityDict.initial(library)

    def synthesize_for(self, spec: SynthesisSpec) -> SynthesisRun:
        """Synthesize equivalent programs for one original instruction ``g``."""
        run = SynthesisRun(spec_name=spec.name)
        multisets = enumerate_multisets(self.library, self.multiset_size)
        start = time.perf_counter()
        budget = self.max_multisets if self.max_multisets is not None else len(multisets)
        remaining = list(multisets)
        while (
            remaining
            and run.multisets_tried < budget
            and len(run.programs) < self.target_programs
        ):
            # Line 9-10: sort by priority (descending) and take the best one.
            remaining.sort(
                key=lambda multiset: self.priorities.priority(multiset, spec.name),
                reverse=True,
            )
            multiset = remaining.pop(0)
            run.multisets_tried += 1
            outcome = self.engine.synthesize(spec, multiset)
            if outcome.program is None:
                self.priorities.penalise(multiset)
            else:
                self.priorities.reward(multiset)
                run.programs.append(outcome.program)
        run.elapsed_seconds = time.perf_counter() - start
        return run

    def synthesize_all(self, specs: Iterable[SynthesisSpec]) -> dict[str, SynthesisRun]:
        """Run HPF-CEGIS over several original instructions, sharing weights."""
        return {spec.name: self.synthesize_for(spec) for spec in specs}

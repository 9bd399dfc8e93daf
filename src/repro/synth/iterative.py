"""Iterative CEGIS over multisets (Buchwald et al., 2018).

The iterative algorithm replaces the single monolithic CEGIS query over the
whole library (the classical formulation of Gulwani et al., 2011, which the
paper reports never finishing on 29 components) with many small queries: it
enumerates multisets of a fixed (small) size drawn from the library with
replacement and runs CEGIS on each multiset independently, stopping once
enough equivalent programs have been found.  The paper uses this as its main baseline; to make the
comparison fair it shuffles the multisets first (Section 6.1), which we
reproduce here with a seeded RNG.
"""

from __future__ import annotations

import random
import time
from typing import Iterable, Optional

from repro.synth.cegis import CegisConfig, CegisEngine
from repro.synth.components import ComponentLibrary
from repro.synth.search import (
    SynthesisRun,
    check_multiset_budget,
    enumerate_multisets,
)
from repro.synth.spec import SynthesisSpec


class IterativeCegis:
    """Shuffled multiset enumeration with one CEGIS call per multiset.

    Args:
        library: the component library.
        multiset_size: number of components per multiset (``n`` in the paper).
        target_programs: stop after this many equivalent programs (``k``).
        cegis_config: knobs forwarded to the core engine.
        shuffle_seed: RNG seed used to shuffle the multisets.
        max_multisets: optional hard cap on how many multisets are tried
            (keeps benchmark runtimes bounded); ``None`` enumerates all.
    """

    name = "iterative"

    def __init__(
        self,
        library: ComponentLibrary,
        multiset_size: int = 3,
        target_programs: int = 3,
        cegis_config: CegisConfig | None = None,
        shuffle_seed: int = 2024,
        max_multisets: Optional[int] = None,
    ):
        check_multiset_budget(multiset_size, max_multisets)
        self.library = library
        self.multiset_size = multiset_size
        self.target_programs = target_programs
        self.engine = CegisEngine(cegis_config)
        self.shuffle_seed = shuffle_seed
        self.max_multisets = max_multisets

    def _candidate_multisets(self) -> list[tuple]:
        multisets = enumerate_multisets(self.library, self.multiset_size)
        rng = random.Random(self.shuffle_seed)
        rng.shuffle(multisets)
        return multisets

    def synthesize_for(self, spec: SynthesisSpec) -> SynthesisRun:
        """Synthesize equivalent programs for one original instruction."""
        run = SynthesisRun(spec_name=spec.name)
        multisets = self._candidate_multisets()
        if self.max_multisets is not None:
            multisets = multisets[: self.max_multisets]
        start = time.perf_counter()
        for multiset in multisets:
            run.multisets_tried += 1
            outcome = self.engine.synthesize(spec, multiset)
            if outcome.program is not None:
                run.programs.append(outcome.program)
            if len(run.programs) >= self.target_programs:
                break
        run.elapsed_seconds = time.perf_counter() - start
        return run

    def synthesize_all(self, specs: Iterable[SynthesisSpec]) -> dict[str, SynthesisRun]:
        """Convenience wrapper over several original instructions."""
        return {spec.name: self.synthesize_for(spec) for spec in specs}

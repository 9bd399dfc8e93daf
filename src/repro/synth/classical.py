"""Classical component-based CEGIS (Gulwani et al., 2011).

The classical formulation hands the *entire* component library to a single
CEGIS invocation.  The encoding then carries location variables for every
component at once, which is exactly the performance cliff the paper
reports: with 29 components it "failed to synthesize a single original
instruction even after several weeks".  We keep the algorithm for
completeness; it still terminates on a tiny library.
"""

from __future__ import annotations

import time

from repro.synth.cegis import CegisConfig, CegisEngine
from repro.synth.components import ComponentLibrary
from repro.synth.search import SynthesisRun
from repro.synth.spec import SynthesisSpec


class ClassicalCegis:
    """One-shot CEGIS over the whole library.

    Args:
        library: the component library; each component is available once.
        cegis_config: knobs forwarded to the core CEGIS engine.
    """

    name = "classical"

    def __init__(
        self,
        library: ComponentLibrary,
        cegis_config: CegisConfig | None = None,
    ):
        self.library = library
        self.engine = CegisEngine(cegis_config)

    def synthesize_for(self, spec: SynthesisSpec) -> SynthesisRun:
        """Run a single CEGIS query with every available component."""
        run = SynthesisRun(spec_name=spec.name)
        start = time.perf_counter()
        outcome = self.engine.synthesize(spec, list(self.library))
        run.elapsed_seconds = time.perf_counter() - start
        run.multisets_tried = 1
        if outcome.program is not None:
            run.programs.append(outcome.program)
        return run

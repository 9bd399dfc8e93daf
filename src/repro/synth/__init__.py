"""Component-based program synthesis (CEGIS) for equivalent programs.

This package implements the synthesis half of SEPE-SQED:

* :mod:`repro.synth.components` — the component library.  Components come in
  the paper's three classes: NIC (native instructions), DIC (derived
  instructions whose immediate is an internal attribute chosen by the
  synthesizer) and CIC (composite instruction sequences).  The default
  library has 29 components (10 NIC + 10 DIC + 9 CIC), as in Section 6.1.
* :mod:`repro.synth.spec` — synthesis specifications built from original
  instructions (formula (2) of the paper).
* :mod:`repro.synth.encoder` — the Gulwani-style location-variable encoding
  (ψ_wfp, ψ_conn, φ_lib) over our bit-vector terms.
* :mod:`repro.synth.cegis` — the two-phase CEGIS loop (finite synthesis +
  verification).
* :mod:`repro.synth.iterative` / :mod:`repro.synth.hpf` — the two
  algorithms compared in Figure 3: the iterative baseline and HPF-CEGIS
  (Algorithm 1), the paper's contribution.
"""

from repro.synth.components import (
    Component,
    ComponentClass,
    ComponentLibrary,
    build_default_library,
)
from repro.synth.spec import SynthesisSpec, spec_from_instruction, synthesis_case_names
from repro.synth.program import SynthesizedProgram, ProgramSlot
from repro.synth.cegis import CegisConfig, CegisEngine, CegisOutcome
from repro.synth.iterative import IterativeCegis
from repro.synth.hpf import HpfCegis, PriorityDict

__all__ = [
    "Component",
    "ComponentClass",
    "ComponentLibrary",
    "build_default_library",
    "SynthesisSpec",
    "spec_from_instruction",
    "synthesis_case_names",
    "SynthesizedProgram",
    "ProgramSlot",
    "CegisConfig",
    "CegisEngine",
    "CegisOutcome",
    "IterativeCegis",
    "HpfCegis",
    "PriorityDict",
]

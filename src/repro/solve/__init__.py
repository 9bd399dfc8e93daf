"""Persistent incremental solving shared by BMC, k-induction, CEGIS and QED.

The subsystem has two halves:

* :mod:`repro.solve.context` — :class:`SolverContext`, a long-lived pairing
  of one bit-blaster and one SAT backend with assumption-scoped push/pop,
* :mod:`repro.solve.backend` — :class:`CdclBackend`, the builtin CDCL
  solver on the kernel ``$REPRO_SAT_BACKEND`` selects.

Every solver loop in the stack (``BmcEngine``/``BmcSession``,
``KInductionEngine``, ``PdrEngine``, ``CegisEngine``,
``qed.verify_equivalence``) runs on ``SolverContext``, the only solver API.
"""

from repro.solve.backend import CdclBackend
from repro.solve.context import BVResult, SolverContext
from repro.solve.pipeline import (
    EncodingStats,
    PipelineConfig,
    default_opt_level,
)

__all__ = [
    "BVResult",
    "CdclBackend",
    "EncodingStats",
    "PipelineConfig",
    "SolverContext",
    "default_opt_level",
]

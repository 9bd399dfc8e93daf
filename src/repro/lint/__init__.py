"""Static analysis over models, encodings and (via ``repro.sat``) kernels.

Three layers, one report format:

* :mod:`repro.lint.model` — well-formedness rules over a
  :class:`~repro.ts.system.TransitionSystem` (and anything imported from
  BTOR2): missing/ill-typed definitions, ill-founded initial states,
  dead or sequentially constant latches, constant-foldable properties.
* :mod:`repro.lint.encoding` — rules over the AIG and CNF layers:
  clauses that should not have survived normalisation, out-of-range
  variables, dangling gate nodes, preprocessing stat regressions.
* Kernel sanitizers live in :mod:`repro.sat.sanitize` (enabled with
  ``REPRO_SANITIZE=1``) so the SAT layer stays import-independent of this
  package; :data:`ENV_SANITIZE` is re-exported here for discoverability.

:mod:`repro.lint.gate` turns a report into a pre-solve gate (``lint=``
``"error"`` / ``"warn"`` / ``"off"``, default off) used by
:class:`~repro.bmc.engine.BmcSession` and the verification flows, and
``python -m repro.lint`` runs the analyzers from the command line.
"""

from repro.lint.findings import (
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
    LintFinding,
    LintReport,
)
from repro.lint.encoding import lint_aig, lint_cnf, lint_encoding_stats
from repro.lint.gate import GATE_MODES, LintWarning, gate_transition_system
from repro.lint.model import lint_transition_system
from repro.sat.sanitize import ENV_SANITIZE

__all__ = [
    "SEV_ERROR",
    "SEV_INFO",
    "SEV_WARNING",
    "LintFinding",
    "LintReport",
    "lint_aig",
    "lint_cnf",
    "lint_encoding_stats",
    "lint_transition_system",
    "ENV_SANITIZE",
    "GATE_MODES",
    "LintWarning",
    "gate_transition_system",
]

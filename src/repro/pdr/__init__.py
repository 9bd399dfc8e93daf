"""IC3/PDR unbounded model checking (:mod:`repro.pdr`).

Built on the failed-assumption-core capability of the SAT layer:

* :class:`PdrEngine` / :class:`PdrResult` — incremental-induction proof
  engine over four persistent solver contexts (consecution, bad-state,
  initiation, lifting), with core-driven inductive generalisation,
  invariant extraction on convergence and, on refutation, BMC's certified
  shortest trace at the depth PDR found;
* :func:`check_invariant` / :class:`InvariantCheck` — independent
  re-verification of an emitted invariant (initiation, consecution,
  safety) on fresh contexts through the naive reference encoding;
* :mod:`repro.pdr.designs` — the tractable baseline design suite shared
  by the tests, the lint/absint gallery and the repo benchmark's
  ``golden-pdr`` workload.
"""

from repro.pdr.engine import (
    Cube,
    CubeLit,
    PdrEngine,
    PdrResult,
    PdrStats,
    cube_clause_term,
)
from repro.pdr.invariant import InvariantCheck, check_invariant

__all__ = [
    "Cube",
    "CubeLit",
    "InvariantCheck",
    "PdrEngine",
    "PdrResult",
    "PdrStats",
    "check_invariant",
    "cube_clause_term",
]

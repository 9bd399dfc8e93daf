"""Result records produced by the verification flows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.bmc.engine import BmcResult
from repro.bmc.kinduction import KInductionResult
from repro.bmc.trace import Trace
from repro.pdr.engine import PdrResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.qed.module import QedVerificationModel
    from repro.smt.terms import BV


@dataclass
class VerificationOutcome:
    """One (method, bug) verification run.

    ``detected`` is ``True`` when BMC found a violation of the QED
    consistency property (i.e. a bug trace), ``False`` when the property held
    up to the bound, and ``None`` when the solver budget ran out.

    ``model`` is the verification model BMC ran on, as in
    :class:`ProofOutcome`: the trace names this model's symbols.
    """

    method: str
    bug_name: Optional[str]
    detected: Optional[bool]
    runtime_seconds: float
    bound: int
    counterexample_length: Optional[int] = None
    bmc_result: Optional[BmcResult] = None
    model: "Optional[QedVerificationModel]" = None

    @property
    def trace(self) -> Optional[Trace]:
        return None if self.bmc_result is None else self.bmc_result.trace

    @property
    def solver_stats(self):
        """CDCL work counters of the underlying BMC run (``None`` if absent)."""
        return None if self.bmc_result is None else self.bmc_result.stats.solver_stats

    def summary_row(self) -> list[str]:
        """Row used by the experiment harnesses' tables."""
        status = {True: "detected", False: "not detected", None: "inconclusive"}[self.detected]
        length = "-" if self.counterexample_length is None else str(self.counterexample_length)
        return [
            self.bug_name or "golden",
            self.method,
            status,
            f"{self.runtime_seconds:.2f}s",
            length,
        ]


@dataclass
class ProofOutcome:
    """One (method, bug) unbounded proof attempt.

    ``proven`` is ``True`` when the QED consistency property was proven for
    **every** depth (k-induction converged or PDR found an inductive
    invariant), ``False`` when a counterexample exists, and ``None`` when
    the engine gave up (depth/frame limit or conflict budget).  ``depth``
    is the induction depth ``k`` (k-induction) or the number of frames
    explored (PDR).

    ``model`` is the verification model the engine actually ran on.  It
    matters for invariant certification: every ``build_model`` call mints a
    fresh module prefix for its state symbols, so a PDR invariant can only
    be re-checked (``check_invariant``) against *this* transition system —
    rebuilding the model produces differently named symbols and the check
    would vacuously fail.
    """

    method: str
    bug_name: Optional[str]
    engine: str
    proven: Optional[bool]
    runtime_seconds: float
    depth: int
    kinduction_result: Optional[KInductionResult] = None
    pdr_result: Optional[PdrResult] = None
    model: "Optional[QedVerificationModel]" = None

    @property
    def invariant(self) -> "Optional[list[BV]]":
        """The PDR-emitted inductive invariant clauses (``None`` otherwise)."""
        return None if self.pdr_result is None else self.pdr_result.invariant

    @property
    def solver_stats(self):
        """CDCL work counters of the proof engine (``None`` if absent)."""
        if self.pdr_result is not None:
            return self.pdr_result.stats.solver_stats
        if self.kinduction_result is not None:
            return self.kinduction_result.step_solver_stats
        return None

    @property
    def pdr_stats(self):
        """IC3/PDR work counters — generalisation attribution (core/MIC/CTG
        literal drops), CTGs blocked, subsumption and ``F_inf`` promotion
        counts — so benchmark harnesses can attribute where a proof's
        conflict budget went.  ``None`` for non-PDR engines."""
        return None if self.pdr_result is None else self.pdr_result.stats

    def summary_row(self) -> list[str]:
        status = {True: "proven", False: "refuted", None: "inconclusive"}[self.proven]
        return [
            self.bug_name or "golden",
            f"{self.method}/{self.engine}",
            status,
            f"{self.runtime_seconds:.2f}s",
            str(self.depth),
        ]

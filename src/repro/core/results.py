"""Result records produced by the verification flows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.bmc.engine import BmcResult
from repro.bmc.trace import Trace
from repro.pdr.engine import PdrResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.qed.module import QedVerificationModel


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


@dataclass
class ProofOutcome:
    """One (method, bug) unbounded proof attempt.

    ``proven`` is ``True`` when the QED consistency property was proven for
    **every** depth (PDR found an inductive invariant), ``False`` when a
    counterexample exists, and ``None`` when the engine gave up (frame
    limit).  ``depth`` is the number of frames PDR explored.

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
    pdr_result: Optional[PdrResult] = None
    model: "Optional[QedVerificationModel]" = None

"""The SAT backend of the persistent solver context.

:class:`CdclBackend` wraps the builtin CDCL solver from :mod:`repro.sat`.
It is fully incremental: clauses, learned clauses, variable activities
and saved phases all persist between ``solve`` calls, which is what the
iterated solver loops (BMC, k-induction, CEGIS, QED) exploit.

``$REPRO_SAT_BACKEND`` selects the kernel for the whole process:
``arena`` (the default) or ``reference``.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence

from repro.errors import SolveError
from repro.sat.arena import ArenaSolver
from repro.sat.solver import SatResult, SatSolver, SolverStats

#: Environment variable selecting the builtin CDCL kernel implementation.
ENV_SAT_BACKEND = "REPRO_SAT_BACKEND"
#: Known kernels: the flat clause-arena hot path and the per-object
#: reference implementation kept for differential testing.
SAT_KERNELS = ("arena", "reference")
DEFAULT_SAT_KERNEL = "arena"

_KERNEL_CLASSES = {"arena": ArenaSolver, "reference": SatSolver}


def default_sat_kernel() -> str:
    """The process default kernel: ``$REPRO_SAT_BACKEND`` when set, else arena."""
    raw = os.environ.get(ENV_SAT_BACKEND)
    if raw is None or raw == "":
        return DEFAULT_SAT_KERNEL
    if raw not in SAT_KERNELS:
        raise SolveError(
            f"{ENV_SAT_BACKEND} must be one of {SAT_KERNELS}, got {raw!r}"
        )
    return raw


class CdclBackend:
    """Incremental backend over the builtin CDCL solver.

    ``kernel`` names the implementation, read from ``$REPRO_SAT_BACKEND``
    once at construction: ``"arena"`` (the flat clause-arena hot path, the
    default) or ``"reference"`` (the per-object :class:`SatSolver`, kept as
    the differential baseline the same way the ``opt_level=0`` encoder
    anchors the compilation pipeline).  Both kernels implement the
    identical contract.

    ``conflict_budget`` is interpreted per call: the budget of one query is
    not eroded by the conflicts of earlier queries on the same context
    (both kernels count conflicts per call).  UNSAT answers carry a
    failed-assumption ``core`` straight from the solver's final-conflict
    analysis: a subset of the assumptions that alone keeps the clause set
    unsatisfiable, empty when the clause set is UNSAT without any of them.
    """

    def __init__(self) -> None:
        self.kernel = default_sat_kernel()
        self._solver = _KERNEL_CLASSES[self.kernel]()

    @property
    def stats(self) -> SolverStats:
        """Cumulative work counters across every ``solve`` call."""
        return self._solver.stats

    def reserve(self, num_vars: int) -> None:
        """Make sure variables ``1..num_vars`` exist even if not yet constrained."""
        self._solver.reserve(num_vars)

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a permanent clause of non-zero DIMACS literals."""
        self._solver.add_clause(literals)

    def solve(
        self,
        assumptions: Iterable[int] = (),
        conflict_budget: Optional[int] = None,
        need_model: bool = True,
    ) -> SatResult:
        """Decide the current clause set under ``assumptions``."""
        return self._solver.solve(
            assumptions=assumptions,
            conflict_budget=conflict_budget,
            need_model=need_model,
        )

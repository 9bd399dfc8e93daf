"""Independent re-checking of PDR-produced inductive invariants.

A proof is only as trustworthy as its certificate.  :func:`check_invariant`
takes the clause list a :class:`~repro.pdr.engine.PdrEngine` emitted and
re-verifies, on **fresh** solver contexts and (by default) the
``opt_level=0`` naive Tseitin reference encoding, the three obligations
that make ``Inv = /\\ clauses`` an inductive strengthening of property
``P`` under the system's global constraints ``C``:

* **initiation** — ``Init ∧ C ∧ ¬Inv`` is UNSAT,
* **consecution** — ``Inv ∧ C ∧ T ∧ C' ∧ ¬Inv'`` is UNSAT,
* **safety** — ``Inv ∧ C ∧ ¬P`` is UNSAT.

Nothing of the engine's incremental machinery (activation variables,
frames, learned clauses) is reused, so a bug there cannot vouch for
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import PdrError
from repro.smt import terms as T
from repro.smt.terms import BV
from repro.solve.context import SolverContext
from repro.ts.system import TransitionSystem
from repro.ts.unroll import Unroller


@dataclass
class InvariantCheck:
    """Result of independently re-checking an inductive invariant."""

    initiation: bool
    consecution: bool
    safety: bool
    num_clauses: int = 0

    @property
    def valid(self) -> bool:
        return self.initiation and self.consecution and self.safety

    def __bool__(self) -> bool:
        return self.valid


def check_invariant(
    ts: TransitionSystem,
    property_name: str,
    clauses: Iterable[BV],
    opt_level: Optional[int] = 0,
) -> InvariantCheck:
    """Re-check that ``clauses`` form an inductive invariant proving the property.

    ``clauses`` are width-1 terms over the state symbols of ``ts`` (what
    :class:`~repro.pdr.engine.PdrResult` carries in ``invariant``).  The
    default ``opt_level=0`` runs the three queries through the naive
    reference encoding, deliberately avoiding the AIG/preprocessing path
    the prover itself used.
    """
    ts.validate()
    if property_name not in ts.properties:
        raise PdrError(f"unknown property {property_name!r}")
    clause_list = list(clauses)
    for clause in clause_list:
        if clause.width != 1:
            raise PdrError(f"invariant clauses must have width 1, got {clause.width}")
    # Frames 0 and 1 of a free-initial unrolling: the current state and
    # its successor.
    frames = Unroller(ts, initial=False)
    inv = T.bv_and_all([frames.at_frame(c, 0) for c in clause_list])
    inv_next = T.bv_and_all([frames.at_frame(c, 1) for c in clause_list])
    constraints_curr = frames.constraints_at(0)
    constraints_next = frames.constraints_at(1)

    def unsat(assertions: list[BV]) -> bool:
        context = SolverContext(opt_level=opt_level)
        for term in assertions:
            context.add(term)
        result = context.check(need_model=False)
        return result.satisfiable is False

    initiation = unsat([frames.initial_condition(), *constraints_curr, T.bv_not(inv)])
    consecution = unsat(
        [inv, *constraints_curr, *constraints_next, T.bv_not(inv_next)]
    )
    safety = unsat(
        [inv, *constraints_curr, T.bv_not(frames.property_at(property_name, 0))]
    )
    return InvariantCheck(
        initiation=initiation,
        consecution=consecution,
        safety=safety,
        num_clauses=len(clause_list),
    )

"""A self-contained CDCL SAT solver.

The paper's toolchain relies on an SMT solver (for CEGIS) and on Pono's BMC
engine (which itself discharges queries to a SAT/SMT backend).  Neither is
available offline, so this package provides the bottom of the stack: a
conflict-driven clause-learning SAT solver with two-watched-literal
propagation, VSIDS branching, phase saving, Luby restarts and first-UIP
clause learning.  The bit-vector layer (:mod:`repro.smt`) bit-blasts to CNF
and queries this solver.

Two interchangeable kernels implement the identical contract:
:class:`~repro.sat.arena.ArenaSolver` keeps the clause database in a single
flat ``array('i')`` and is the production hot path;
:class:`~repro.sat.solver.SatSolver` keeps per-clause objects and serves as
the readable differential reference.
"""

from repro.sat.arena import ArenaSolver
from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver, SatResult

__all__ = [
    "ArenaSolver",
    "CNF",
    "SatSolver",
    "SatResult",
]

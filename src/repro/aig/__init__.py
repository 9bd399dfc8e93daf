"""And-Inverter-Graph intermediate representation for the encoding pipeline.

At ``opt_level >= 1`` the bit-blaster no longer emits Tseitin clauses
directly: it lowers every word-level term into this IR first.  The graph is
an AIG extended with native XOR and ITE (mux) nodes — both are pervasive in
datapath logic, and a dedicated node encodes to 4 clauses where the
AND/inverter expansion would need 9 — with structural hashing and a set of
constant/two-level rewrite rules applied at construction time.  Only the
cones actually asserted or assumed are lowered to CNF
(:class:`~repro.aig.lower.CnfLowering`), so rewritten-away and never-used
gates cost nothing downstream.
"""

from repro.aig.graph import AIG
from repro.aig.lower import CnfLowering

__all__ = ["AIG", "CnfLowering"]
